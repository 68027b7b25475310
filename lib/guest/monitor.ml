open Sim_engine

type params = {
  delta_exp : int;
  trace_exp : int;
  report_vcrd : bool;
  estimator : Sim_learn.Estimator.params;
}

let default_params ~slot_cycles =
  {
    delta_exp = 20;
    trace_exp = 10;
    report_vcrd = true;
    estimator = Sim_learn.Estimator.default_params ~slot_cycles;
  }

type trace_entry = { time : int; wait : int; lock_id : int }

type t = {
  params : params;
  mutable engine : Engine.t;
  hypercall : Sim_vmm.Hypercall.t;
  domain : Sim_vmm.Domain.t;
  estimator : Sim_learn.Estimator.t;
  mutable spin_hist : Sim_stats.Histogram.t;
  mutable sem_hist : Sim_stats.Histogram.t;
  mutable on_traced : (trace_entry -> unit) option;
  mutable over_threshold : int;
  mutable adjusting_events : int;
  mutable window : Engine.timer;  (** the HIGH window's end check *)
  mutable window_budget : int;  (** online cycles left in the HIGH window *)
  mutable window_anchor : int;  (** domain online cycles at the last re-arm *)
  mutable parked : bool;  (** a HIGH window was cancelled by {!park} *)
}

let params t = t.params

let threshold_cycles t = Units.pow2 t.params.delta_exp

let set_vcrd t v =
  if t.params.report_vcrd then Sim_vmm.Hypercall.do_vcrd_op t.hypercall t.domain v

let domain_online t =
  Sim_vmm.Vmm.domain_online_cycles
    (Sim_vmm.Hypercall.vmm t.hypercall)
    t.domain

(* The HIGH window is metered in guest-consumed CPU time, not wall
   time: a capped VM may be entirely offline for long stretches during
   which no synchronization can occur, and a wall-clock window would
   silently expire there. The budget is [x * |C(V)|] online cycles —
   equivalent to [x] wall cycles when the whole gang is coscheduled.
   The timer re-arms until the budget is consumed. *)
let rec arm_window t =
  let vcpus = Sim_vmm.Domain.vcpu_count t.domain in
  let min_delay = Units.pow2 20 in
  let delay = Int.max min_delay (t.window_budget / vcpus) in
  Engine.arm t.engine t.window ~delay

(* [t.window]'s action. *)
and window_check t () =
  let consumed = domain_online t - t.window_anchor in
  if consumed >= t.window_budget then set_vcrd t Sim_vmm.Domain.Low
  else begin
    t.window_anchor <- t.window_anchor + consumed;
    t.window_budget <- t.window_budget - consumed;
    arm_window t
  end

let create params ~engine ~hypercall ~domain ~rng =
  let t =
    {
      params;
      engine;
      hypercall;
      domain;
      estimator = Sim_learn.Estimator.create params.estimator rng;
      spin_hist = Sim_stats.Histogram.create ();
      sem_hist = Sim_stats.Histogram.create ();
      on_traced = None;
      over_threshold = 0;
      adjusting_events = 0;
      window = Engine.no_timer;
      window_budget = 0;
      window_anchor = 0;
      parked = false;
    }
  in
  t.window <- Engine.timer engine (window_check t);
  t

(* Domain migration is a two-phase handoff because the two engines
   run in different fabric windows, possibly on different OS threads:
   [park] executes on the source host (freeing [window], the
   monitor's only engine event, is a queue and slab mutation only the
   source side may perform), [retarget] on the destination one window
   later, where it binds a fresh timer.
   The budget and anchor are metered in guest online cycles, which
   are continuous across hosts, so a HIGH window survives the move
   intact (modulo the re-check landing [delay] after the attach
   instant instead of the original arm instant, part of the modeled
   stop-and-copy latency). *)
let park t =
  t.parked <- Engine.armed t.engine t.window;
  Engine.free_timer t.engine t.window;
  t.window <- Engine.no_timer

let retarget t ~engine =
  t.engine <- engine;
  t.window <- Engine.timer engine (window_check t);
  if t.parked then begin
    t.parked <- false;
    arm_window t
  end

(* Algorithm 1: an over-threshold spinlock is an adjusting event.
   The estimator's clock is per-VCPU guest online time, not wall time:
   localities of synchronization are a property of the program, which
   makes progress only while the VM is online. Estimates and window
   budgets are therefore all in online cycles. *)
let adjusting_event t =
  t.adjusting_events <- t.adjusting_events + 1;
  let online_now = domain_online t / Sim_vmm.Domain.vcpu_count t.domain in
  let x = Sim_learn.Estimator.on_adjusting_event t.estimator ~now:online_now in
  Engine.disarm t.engine t.window;
  set_vcrd t Sim_vmm.Domain.High;
  t.window_budget <- x * Sim_vmm.Domain.vcpu_count t.domain;
  t.window_anchor <- domain_online t;
  arm_window t

let record_spin_wait t ~vcpu ~holder ~lock_id ~wait =
  Sim_stats.Histogram.add t.spin_hist wait;
  (match t.on_traced with
  | Some f when wait >= Units.pow2 t.params.trace_exp ->
    f { time = Engine.now t.engine; wait; lock_id }
  | Some _ | None -> ());
  if wait > threshold_cycles t then begin
    t.over_threshold <- t.over_threshold + 1;
    let tr = Engine.trace t.engine in
    if Sim_obs.Trace.on tr Sim_obs.Trace.Spin then
      Sim_obs.Trace.emit tr ~now:(Engine.now t.engine)
        (Sim_obs.Trace.Spin_overthreshold
           { domain = t.domain.Sim_vmm.Domain.id; vcpu; lock_id; wait;
             holder });
    adjusting_event t
  end

let record_sem_wait t ~wait = Sim_stats.Histogram.add t.sem_hist wait

let spin_histogram t = t.spin_hist

let sem_histogram t = t.sem_hist

let on_traced_wait t f = t.on_traced <- Some f

let over_threshold_count t = t.over_threshold

let adjusting_events t = t.adjusting_events

let estimator t = t.estimator

let reset_window t =
  t.spin_hist <- Sim_stats.Histogram.create ();
  t.sem_hist <- Sim_stats.Histogram.create ();
  t.over_threshold <- 0
