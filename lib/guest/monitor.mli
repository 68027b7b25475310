(** The Monitoring Module (paper §3.3), one per VM.

    Runs "in the guest kernel": instruments every spinlock acquisition
    with the hi-res timer, keeps the waiting-time histograms (Figures
    1b, 2, 8), hands each long wait to an optional listener (the raw
    trace behind Fig 2's locality note and [asman trace]), and detects {e over-threshold} spinlocks —
    waits above [2^delta_exp] cycles (δ = 20). Each detection is a
    VCRD {e adjusting event} (Algorithm 1): the {!Sim_learn.Estimator}
    picks a lasting time [x], the module raises the domain's VCRD to
    HIGH through the [do_vcrd_op] hypercall, and — if no further
    over-threshold spinlock arrives within [x] — lowers it back. A
    further detection inside the window is simply the next adjusting
    event: the estimate is refreshed and the window extended. *)

type params = {
  delta_exp : int;  (** δ: over-threshold boundary is 2^δ cycles *)
  trace_exp : int;  (** pass waits >= 2^trace_exp to the listener *)
  report_vcrd : bool;
      (** issue hypercalls (off when the module only observes, e.g.
          under the plain Credit scheduler one can disable reporting —
          the scheduler would ignore it anyway) *)
  estimator : Sim_learn.Estimator.params;
}

val default_params : slot_cycles:int -> params
(** δ = 20, trace threshold 2^10, reporting on. *)

type trace_entry = { time : int; wait : int; lock_id : int }

type t

val create :
  params ->
  engine:Sim_engine.Engine.t ->
  hypercall:Sim_vmm.Hypercall.t ->
  domain:Sim_vmm.Domain.t ->
  rng:Sim_engine.Rng.t ->
  t

val params : t -> params

val park : t -> unit
(** Source-side half of a decoupled-VMM domain migration: disarm and
    free the monitor's one timer (the HIGH-window end check) on the
    current engine. Must run on the source host — it mutates that
    engine's queue and slab. *)

val retarget : t -> engine:Sim_engine.Engine.t -> unit
(** Destination-side half: swap engines, bind the window timer on the
    new one and, if {!park} interrupted an open HIGH window, re-arm
    it. The window
    budget is metered in guest online cycles, continuous across
    hosts, so the window survives the move. *)

val threshold_cycles : t -> int
(** [2^delta_exp]. *)

val record_spin_wait :
  t -> vcpu:int -> holder:int -> lock_id:int -> wait:int -> unit
(** Called by the kernel at every spinlock acquisition with the
    measured wall-clock waiting time (0 for the uncontended fast
    path). May trigger an adjusting event. [vcpu] is the waiter's
    VCPU and [holder] the VCPU holding the lock when the wait began
    (both -1 = unknown, e.g. barrier flag spins; plain labels, not
    optional arguments, so a call boxes nothing); over-threshold
    waits are emitted as [Spin_overthreshold] trace events carrying
    them, the join key for LHP classification. *)

val record_sem_wait : t -> wait:int -> unit

val spin_histogram : t -> Sim_stats.Histogram.t
val sem_histogram : t -> Sim_stats.Histogram.t

val on_traced_wait : t -> (trace_entry -> unit) -> unit
(** Install the listener (replacing any earlier one) for spin waits
    [>= 2^trace_exp]: it is called once per such wait, in recording
    order, with the engine time of the recording. The monitor keeps
    no entries itself; without a listener a long wait costs one
    branch. *)

val over_threshold_count : t -> int

val adjusting_events : t -> int

val estimator : t -> Sim_learn.Estimator.t

val reset_window : t -> unit
(** Clear the histograms and the over-threshold count (not the
    learner, nor the listener): starts a fresh measurement window,
    e.g. the paper's 30-second observation. *)
