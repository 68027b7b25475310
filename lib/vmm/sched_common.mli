(** Helpers shared by the Credit, ASMan and static-coscheduling
    schedulers: the work-stealing load balancer and idle-PCPU kicks. *)

val requeue_current : Sched_intf.api -> pcpu:int -> unit
(** Preempt the PCPU's occupant (if any) back into its run queue, so
    the slot decision can consider it like any queued VCPU. *)

val steal :
  Sched_intf.api ->
  dst:int ->
  under_only:bool ->
  allowed:(Vcpu.t -> dst:int -> bool) ->
  Vcpu.t option
(** Find the maximal-credit VCPU queued on {e another} PCPU that
    satisfies [allowed] (and has positive credit when [under_only]),
    migrate it to [dst]'s queue and return it. Boosted VCPUs are never
    stolen — a coscheduling IPI has reserved them for their own PCPU —
    and neither are parked ones. *)

val allow_any : Vcpu.t -> dst:int -> bool

val pick_baseline :
  Sched_intf.api -> pcpu:int -> allowed:(Vcpu.t -> dst:int -> bool) -> Vcpu.t option
(** The Credit scheduler's selection: local UNDER head, else steal a
    remote UNDER VCPU, else local OVER head or any remote eligible
    VCPU. The CPU-time cap is enforced by parking at accounting
    events, so unparked OVER VCPUs may run between events even in the
    non-work-conserving mode (as Xen behaves). *)

val idle_target : Sched_intf.api -> home:int -> int
(** Where an UNDER wakeup runs at once: [home] if that PCPU is online
    and idle, else the lowest-numbered online idle PCPU, else [-1]. *)

val assign_credit : Sched_intf.api -> unit
(** Run the Algorithm 3 credit assignment (and parking update) for
    all domains. *)

val preempt_parked : Sched_intf.api -> refill:(pcpu:int -> unit) -> unit
(** Preempt every running VCPU the assignment just parked (a capped
    VM's VCPUs stop at the same accounting instant; boosted gang
    members are left alone) and let [refill] choose replacements. *)
