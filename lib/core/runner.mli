(** Execute scenarios and collect the paper's metrics.

    Two measurement protocols, mirroring §5:
    - {!run_rounds}: advance until every workload VM has completed a
      number of full rounds of its program (run-time experiments;
      "VM round k" completes when the slowest thread finishes pass k).
    - {!run_window}: advance for a fixed simulated wall window
      (throughput and spinlock-trace experiments — the paper's
      30-second observation).

    Counters are read through the scenario's {!Sim_obs.Metrics}
    registry: the baseline is one snapshot taken at measurement
    start and windowed values are a snapshot diff (no per-counter
    side tables). When [config.obs.profile] installs a profiler,
    the [engine.run] and [collect] phases are charged to it. *)

type vm_metrics = {
  vm_name : string;
  rounds : int;  (** completed VM rounds *)
  round_sec : float list;  (** duration of each completed VM round *)
  marks : int;  (** [Mark]s executed during the measurement *)
  online_rate : float;  (** measured over the run *)
  expected_online : float;  (** Equation (2) *)
  attained_cycles : int;  (** VCPU-online cycles over the measurement *)
  entitled_cycles : int;
      (** Equation (2) share of the measurement window, in cycles *)
  theft_cycles : int;
      (** [max 0 (attained - entitled)] — cycles attained beyond the
          weighted entitlement (see {!Sim_vmm.Vmm.theft_cycles}) *)
  spin_over_threshold : int;
  adjusting_events : int;
  vcrd_transitions : int;
  total_spin_sec : float;
  watchdog_demotions : int;
      (** gang-watchdog demotions of this VM during the measurement *)
  invariant_violations : int;
      (** runtime invariant violations attributed to this VM during
          the measurement *)
}

type metrics = {
  vms : vm_metrics list;
  by_name : (string, vm_metrics) Hashtbl.t;
      (** index of [vms] by VM name, for O(1) {!vm_metrics} lookups *)
  sim_sec : float;  (** simulated time elapsed during the measurement *)
  events_fired : int;  (** engine events during the measurement *)
  ipis : int;  (** IPIs sent during the measurement *)
  ctx_switches : int;  (** context switches during the measurement *)
  invariant_violations : int;
      (** runtime invariant violations recorded during the measurement
          (0 unless the config enables checking and something broke) *)
  sched_counters : (string * int) list;
      (** scheduler health counters (gang watchdog), cumulative *)
  fault_stats : (string * int) list;
      (** injector tallies, cumulative; [[]] on clean runs *)
}

val run_rounds :
  ?probe:float * (Scenario.t -> unit) ->
  Scenario.t ->
  rounds:int ->
  max_sec:float ->
  metrics
(** Run until every workload VM completes [rounds] rounds, or the
    simulated clock advances [max_sec] past the start.

    [?probe:(every_sec, f)] is the oracle hook point: [f scenario]
    fires every [every_sec] simulated seconds while the run is in
    flight (SimCheck's mid-run invariant sweeps), and the chain is
    stopped when the run returns. Probes must only observe. *)

val run_window :
  ?probe:float * (Scenario.t -> unit) -> Scenario.t -> sec:float -> metrics
(** Reset measurement state (monitor windows, marks, online
    accounting), run exactly [sec] simulated seconds, then collect.
    [?probe] as in {!run_rounds}. *)

val first_round_sec : metrics -> vm:string -> float
(** Duration of the VM's first round. Raises [Failure] if it never
    completed one (increase [max_sec]). *)

val mean_round : vm_metrics -> float
(** The VM's mean round time; [nan] (printed "-" in tables) when it
    completed none. *)

val mean_round_sec : metrics -> vm:string -> float
(** {!mean_round} of the named VM. Raises [Failure] if it completed
    no round. *)

val vm_metrics : metrics -> vm:string -> vm_metrics

val metrics_kv : metrics -> (string * float) list
(** Flatten a metrics record into (key, value) pairs for a
    run-registry snapshot: the global counters plus, per VM,
    rounds / online rate / attained / entitled / theft cycles.
    Pure observation — reads the record, touches nothing. *)

val monitor_of : Scenario.t -> vm:string -> Sim_guest.Monitor.t
(** The VM's Monitoring Module (histograms and traces survive the
    run). Raises [Invalid_argument] for an idle VM. *)
