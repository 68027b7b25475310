(** Seeded scheduler mutations for oracle validation.

    A mutation is a deliberately planted scheduler bug. SimCheck's
    acceptance test arms one, fuzzes until an oracle fails, and checks
    the shrinker converges to a small deterministic repro — evidence
    that the oracles detect real defects rather than vacuously
    passing. Mutations are process-global (set once before building
    scenarios) and default to off, in which case every hook site
    behaves exactly as unmutated code. *)

type t =
  | Skip_credit_burn
      (** {!Vmm.charge} accounts online time but burns no credit, so
          caps/parking never engage — breaks proportional fairness *)
  | Drop_gang_sibling
      (** {!Sched_gang} gang launches skip the first ready sibling's
          IPI — breaks coschedule atomicity *)
  | Double_insert_reloc
      (** {!Vmm.migrate} forgets to remove the VCPU from its source
          runqueue — a VCPU queued on two PCPUs at once *)
  | Sampled_accounting
      (** precise-mode {!Vmm.charge} burns only when called from the
          periodic credit tick, never at span end — Xen's sampled
          accounting smuggled back in, so a tick-dodging guest escapes
          all debiting. Caught by the SimCheck entitlement oracle. *)
  | Double_place
      (** the cluster placement engine admits an arriving VM to a
          second feasible host's bookkeeping as well, corrupting the
          controller's capacity accounting. Caught by the SimCheck
          cluster-conservation oracle. *)

val all : t list
val to_name : t -> string
val of_name : string -> t option

val set : t option -> unit
(** Arm a mutation (or disarm with [None]). Affects scenarios built
    afterwards in this process. Not domain-safe: arm only in
    single-threaded harness code (the CLI, directed tests). *)

val enabled : t -> bool
(** One global read; the hot-path cost when disarmed. *)
