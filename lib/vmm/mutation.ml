(* Seeded scheduler mutations: deliberately planted bugs used to
   validate that the SimCheck oracles actually detect real scheduler
   defects (and that the shrinker converges on them). Exactly one
   mutation can be active per process; the hooks below compile to a
   single global read on the hot paths, and all call sites behave
   identically when no mutation is armed. *)

type t =
  | Skip_credit_burn
      (** [Vmm.charge] accounts online time but burns no credit *)
  | Drop_gang_sibling
      (** [Sched_gang.launch_cosched] skips the first ready sibling's
          launch IPI on every gang launch *)
  | Double_insert_reloc
      (** [Vmm.migrate] forgets to remove the VCPU from its old
          runqueue, leaving it queued twice *)
  | Sampled_accounting
      (** precise-mode [Vmm.charge] burns only in the periodic-tick
          path, silently re-introducing Xen's sampled accounting: a
          guest that blocks just before each tick is never debited *)
  | Double_place
      (** the cluster placement engine admits an arriving VM to a
          second feasible host's bookkeeping as well — the VM is
          resident on two hosts in the controller's view *)

let all =
  [ Skip_credit_burn; Drop_gang_sibling; Double_insert_reloc;
    Sampled_accounting; Double_place ]

let to_name = function
  | Skip_credit_burn -> "skip-credit-burn"
  | Drop_gang_sibling -> "drop-gang-sibling"
  | Double_insert_reloc -> "double-insert-reloc"
  | Sampled_accounting -> "sampled-accounting"
  | Double_place -> "double-place"

let of_name s =
  match String.lowercase_ascii s with
  | "skip-credit-burn" -> Some Skip_credit_burn
  | "drop-gang-sibling" -> Some Drop_gang_sibling
  | "double-insert-reloc" -> Some Double_insert_reloc
  | "sampled-accounting" -> Some Sampled_accounting
  | "double-place" -> Some Double_place
  | _ -> None

let active : t option ref = ref None

let set m = active := m
(* Compared by hand: [!active = Some m] would box [Some m] and call the
   polymorphic compare on every hot-path query. *)
let enabled m = match !active with Some a -> a == m | None -> false
