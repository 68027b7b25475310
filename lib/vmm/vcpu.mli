(** Virtual CPU.

    A VCPU is the schedulable unit the VMM multiplexes onto PCPUs. It
    carries Credit-scheduler state (credit balance, boost flag) and
    the guest-facing hooks through which the guest kernel learns when
    the VCPU goes on and off a PCPU (the "sometimes online, sometimes
    offline" behaviour of §2.1 that breaks spinlock assumptions). *)

type state =
  | Running of int  (** online on the given PCPU *)
  | Ready  (** waiting in some PCPU's run queue *)
  | Blocked  (** idle (guest halted it); not in any run queue *)

type hooks = {
  on_scheduled : unit -> unit;  (** VCPU just went online *)
  on_preempted : unit -> unit;  (** VCPU just went offline *)
}

type t = {
  id : int;  (** globally unique *)
  domain_id : int;
  index : int;  (** position within the domain, 0-based *)
  mutable credit : int;
  mutable state : state;
  mutable home : int;  (** PCPU whose run queue holds/held it *)
  mutable boosted : bool;  (** coscheduling IPI priority boost *)
  mutable parked : bool;
      (** capped (non-work-conserving) and out of credit. Set and
          cleared only at accounting events, as Xen does: a capped VM's
          VCPUs park and unpark in global sync, and a parked VCPU is
          not runnable unless boosted by a coscheduling IPI. *)
  mutable hooks : hooks;
  mutable online_cycles : int;  (** accumulated online time *)
  mutable last_dispatch : int;  (** when the current online span began *)
  mutable dispatches : int;
  mutable migrations : int;
  mutable reloc_penalty : int;
      (** pending cold-cache cycles from a cross-socket relocation
          (NUMA model); charged and reset at the next accounting.
          Always 0 when the NUMA model is off. *)
  mutable some : t option;
      (** [Some] of this VCPU, built once by [make] and never
          reassigned: the VMM's current-VCPU slots and the run-queue
          scans hand it out instead of boxing a fresh option on every
          dispatch or pick. *)
}

val make : id:int -> domain_id:int -> index:int -> home:int -> t
(** A fresh VCPU, [Blocked] with zero credit. *)

val set_hooks : t -> hooks -> unit

val is_running : t -> bool
val is_ready : t -> bool
val is_blocked : t -> bool

val eligible : t -> bool
(** May be dispatched: not parked, or boost-overridden. *)

val running_on : t -> int option
