(** Per-PCPU run queue of [Ready] VCPUs.

    Selection order follows the paper's Adaptive Scheduler: boosted
    VCPUs (raised by a coscheduling IPI) come first, then decreasing
    unused credit, ties broken FIFO. The queue is a singly-linked
    FIFO with a tail pointer: {!insert} and {!length} are O(1) (the
    wake/preempt hot path); the priority scans and {!remove} stay
    O(n) over queues bounded by the total VCPU count. *)

type t

val create : pcpu:int -> t
(** A queue in a set of its own. *)

val create_set : int -> t array
(** [create_set n] is the queues of PCPUs [0 .. n-1] (index = PCPU),
    sharing one occupancy bitmap. *)

val occupied : t -> bool
(** The queue's occupancy bit: set by {!insert} on the empty to
    non-empty transition and cleared by {!remove} on the reverse, so
    it always equals [length t > 0]. *)

val next_occupied : t -> int -> int
(** [next_occupied t p] is the lowest PCPU [>= p] whose queue in
    [t]'s set is non-empty, or [-1] if there is none. Reads the
    bitmap a word at a time and allocates nothing. *)

val pcpu : t -> int

val length : t -> int

val is_empty : t -> bool

val insert : t -> Vcpu.t -> unit
(** Appends and records the VCPU's [home]. The VCPU must be [Ready]
    and not already queued anywhere (checked for this queue). *)

val remove : t -> Vcpu.t -> unit
(** Raises [Invalid_argument] if the VCPU is not in this queue. *)

val mem : t -> Vcpu.t -> bool

val iter : t -> f:(Vcpu.t -> unit) -> unit
(** Queue order (FIFO). *)

val to_list : t -> Vcpu.t list
(** Queue order (FIFO). *)

val head : t -> Vcpu.t option
(** The VCPU Algorithm 4 calls [VC(P_k)]: maximal by
    [(boosted, credit)] among {!Vcpu.eligible} VCPUs, FIFO on ties.
    Parked VCPUs are skipped unless boosted; whether an out-of-credit
    {e unparked} head may run is the scheduler's policy decision. *)

val head_under : t -> Vcpu.t option
(** Like {!head} but restricted to VCPUs with positive credit
    (Xen's UNDER priority). *)

val steal_candidate :
  t ->
  dst:int ->
  under_only:bool ->
  allowed:(Vcpu.t -> dst:int -> bool) ->
  Vcpu.t option ->
  Vcpu.t option
(** [steal_candidate t ~dst ~under_only ~allowed best] folds this
    queue into the incumbent [best]: a VCPU that is neither boosted nor
    parked, has positive credit when [under_only], and is [allowed]
    onto [dst] replaces the incumbent only on strictly more credit, so
    ties go to the earlier queue and the earlier position. Walks the
    queue in place and allocates nothing. *)

val has_domain : t -> domain_id:int -> bool
(** Is any VCPU of the given domain queued here? *)

val find_domain : t -> domain_id:int -> Vcpu.t list

val check : t -> (unit, string) result
(** Audit internal consistency: the node count matches {!length}, the
    tail pointer is the last node, the occupancy bit is set exactly
    when a node is linked, and every queued VCPU is [Ready] with this
    queue as its home. Used by the runtime invariant
    checker. *)
