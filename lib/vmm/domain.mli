(** Virtual machine (Xen domain).

    Carries the proportional-share weight, the VCPU set, and the
    paper's central dynamic property: the {b VCPU Related Degree}
    (VCRD). When the guest's Monitoring Module detects over-threshold
    spinlocks it raises VCRD to [High] via the [do_vcrd_op] hypercall;
    the Adaptive Scheduler then coschedules the domain's VCPUs. *)

type vcrd = Low | High

type t = {
  id : int;
  name : string;
  weight : int;
  vcpus : Vcpu.t array;
  mutable vcrd : vcrd;
  concurrent_type : bool;
      (** static marking used only by the CON (static-coscheduling)
          baseline of the paper's previous work [12] *)
  (* accounting *)
  mutable vcrd_transitions : int;  (** Low->High transitions *)
  mutable high_cycles : int;  (** total time spent with VCRD = High *)
  mutable high_since : int;  (** valid while vcrd = High *)
}

val make :
  ?concurrent_type:bool ->
  id:int ->
  name:string ->
  weight:int ->
  vcpus:Vcpu.t array ->
  unit ->
  t
(** Raises [Invalid_argument] on a non-positive weight or empty VCPU
    array, or if the VCPUs do not all belong to domain [id]. *)

val vcpu_count : t -> int

val set_vcrd : t -> now:int -> vcrd -> bool
(** [set_vcrd t ~now v] updates the VCRD and accounting; returns
    [true] iff the value changed. *)

val weight_proportion : t -> all:t list -> float
(** Equation (1): this domain's weight over the sum of all weights. *)

val expected_online_rate : t -> all:t list -> pcpus:int -> float
(** Equation (2): [pcpus * weight_proportion / vcpu_count], the
    fraction of time each VCPU is expected to be online. *)

val online_cycles : t -> int
(** Sum of the VCPUs' accumulated online time (excludes any open
    online span). *)
