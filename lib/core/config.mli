(** Simulation configuration: one record gathering every knob of the
    reproduction (machine, scheduler, guest, workload scale). *)

type sched_kind =
  | Credit  (** baseline Xen Credit scheduler *)
  | Asman  (** adaptive dynamic coscheduling (the paper) *)
  | Cosched_static  (** static coscheduling, the CON baseline *)
  | Asman_oov
      (** ASMan with out-of-VM VCRD detection via pause-loop exits —
          the paper's §7 future work; needs no guest modification *)
  | Custom of string * Sim_vmm.Sched_intf.maker
      (** named custom scheduler (ablation studies) *)

val sched_name : sched_kind -> string
val sched_of_name : string -> sched_kind option
val sched_maker : sched_kind -> Sim_vmm.Sched_intf.maker

type obs = {
  trace_mask : int;
      (** {!Sim_obs.Trace} category mask armed on the scenario's
          engine trace; 0 = tracing off (the default; no events are
          allocated, figure outputs stay byte-identical) *)
  trace_cap : int;  (** trace ring capacity when armed *)
  metrics : bool;  (** collect/export a metrics snapshot after runs *)
  profile : Sim_obs.Prof.t option;
      (** wall-clock self-profiler charged by {!Runner} sections *)
  hub : bool;
      (** register the scenario in {!Obs_hub} for export when
          {!obs_wanted} (default). SimCheck builds thousands of traced
          scenarios per run and turns this off. *)
}

val obs_off : obs
(** Everything off — the default; simulation results are identical
    to a build without the observability layer. *)

type t = {
  seed : int64;
  cpu : Sim_hw.Cpu_model.t;
  topology : Sim_hw.Topology.t;
  stagger : bool;  (** per-PCPU slot phase skew (realistic: on) *)
  work_conserving : bool;
  credit_unit : int;
  guest_params : Sim_guest.Kernel.params option;  (** [None] = defaults *)
  monitor_report : bool;  (** guests issue VCRD hypercalls *)
  scale : float;  (** global workload scale factor *)
  faults : Sim_faults.Fault.profile;  (** chaos profile ([none] = clean run) *)
  invariants : Sim_vmm.Vmm.invariant_mode;
      (** runtime invariant checking (default [Record]: violations are
          counted but never change scheduling, so clean runs stay
          byte-identical to a checker-free build) *)
  watchdog : bool option;
      (** arm the gang coscheduling watchdog; [None] (default) arms it
          exactly when [faults] is a real profile, so fault-free runs
          carry no watchdog events *)
  engine_queue : Sim_engine.Engine.queue_kind option;
      (** event-queue backend for this scenario's engine; [None]
          (default) uses the process-wide default (the
          [--engine-queue] flag). SimCheck pins it per case so a
          differential rerun needs no global state. *)
  sim_jobs : int;
      (** [--sim-jobs]: decoupled sub-host count. [1] (default) is
          one host on one sequential engine; {!Decouple.build} runs
          [N >= 2] socket-aligned sub-hosts on the windowed PDES
          fabric. {!Scenario.build} ignores it. *)
  decouple : bool;
      (** Unused: nothing reads it; [sim_jobs >= 2] alone selects a
          decoupled run. Kept only because [perfbench/workloads.ml]
          still sets it; remove the two together. *)
  numa : bool;
      (** arm the NUMA host model (same-socket steal preference,
          cross-socket relocation penalty). Default off: flat-host
          behaviour, byte-identical to earlier builds. *)
  accounting : Sim_vmm.Vmm.accounting;
      (** credit-accounting discipline ([--accounting]). [Precise]
          (default) charges span-exact cycles — byte-identical to
          earlier builds. [Sampled] reproduces Xen's periodic-tick
          debiting, the surface the Zhou et al. tick-dodging attack
          exploits. *)
  obs : obs;  (** observability options (default {!obs_off}) *)
}

val default : t
(** The paper's testbed: 8 PCPUs at 2.33 GHz, staggered 10 ms slots,
    30 ms accounting, reporting guests, scale 0.25 (workloads shrunk
    4x for simulation speed; all reported metrics are ratios or
    rates, which scale out). *)

val with_scale : t -> float -> t
val with_seed : t -> int64 -> t
val with_work_conserving : t -> bool -> t
val with_faults : t -> Sim_faults.Fault.profile -> t

val watchdog_enabled : t -> bool
(** Resolve the [watchdog] option against the fault profile. *)

val obs_wanted : t -> bool
(** Tracing armed or metrics collection requested. *)

val guest_params : t -> Sim_guest.Kernel.params
(** The explicit guest params, or defaults derived from [cpu]. *)

val freq : t -> Sim_engine.Units.freq
val pcpus : t -> int
