(** Cluster-scale layer: a simulated datacenter of N full hosts on
    the {!Asman.Hosts} substrate, driven by a seeded VM
    arrival/departure trace ({!Vtrace}) through a pluggable placement
    engine ({!Placement}).

    Members 0..N-1 are the hosts, each a complete single-host stack
    with an idle sentinel VM; member N is the {e incubator}, a tiny
    extra host whose VMM holds every trace VM unlaunched (hence
    quiescent) and whose engine runs the cluster controller: arrival
    events, the admission queue, the placement bookkeeping
    ({!Placement.host_view}s), departure timers and the periodic
    repredict/rebalance tick.

    Every move is one {!Asman.Hosts.migrate}: a placement ships the
    VM out of the incubator (its host launches it on arrival), a
    pressure migration ships a running guest between hosts with a
    stop-and-copy cost proportional to its memory footprint as extra
    latency, and a departure is {!Asman.Hosts.depart}. This layer adds
    the policy: which VM goes where, and when.

    Determinism: controller state is mutated only by incubator-member
    events and host state only by that host's events, with every
    cross-member hop a fabric post at [>= lookahead]; the placement
    log and digest are therefore identical at any worker count. *)

type t

val build :
  ?overcommit:float ->
  ?penalty_sec:float ->
  ?rebalance:bool ->
  Asman.Config.t ->
  sched:Asman.Config.sched_kind ->
  policy:Placement.policy ->
  hosts:int ->
  trace:Vtrace.t ->
  t
(** [overcommit] (default 2.0) scales each host's VCPU-slot capacity
    relative to its PCPU count; [penalty_sec] (default 0.75) is the
    lifetime-aware scorer's load-spreading weight; [rebalance]
    (default on) enables pressure migrations, taken only while the
    host imbalance is at least [max 4 (2 * vcpus)] slots.
    [config.topology] is the per-host topology.
    Raises [Invalid_argument] on an empty trace, a fault profile, or
    a trace VM with more VCPUs than a host has PCPUs. *)

type vm_report = {
  v_name : string;
  v_phase : string;
  v_vcpus : int;
  v_run_at : int;  (** controller launch-ack time, -1 if never placed *)
  v_life_cycles : int;
  v_departed_at : int;  (** -1 until departed *)
  v_migrations : int;
  v_downtime_cycles : int;  (** total stop-and-copy freeze *)
  v_repredictions : int;
}

type host_report = {
  h_host : int;
  h_peak_used : int;
  h_physical : string list;
  h_view : string list;
}

type report = {
  cr_hosts : int;
  cr_workers : int;
  cr_policy : string;
  cr_wall_sec : float;
  cr_sim_sec : float;
  cr_end_cycles : int;
  cr_events : int;
  cr_windows : int;
  cr_cross_posts : int;
  cr_density : float;
      (** time-averaged admitted VMs per host (consolidation density) *)
  cr_p99_stall_ms : float;
      (** p99 over all guests' non-zero spin waits *)
  cr_mean_stall_ms : float;
  cr_stall_samples : int;
  cr_stall_tail : (int * int) list;
      (** [(k, count)] of spin waits >= 2{^k} cycles at the paper's
          reporting thresholds k = 10, 15, 20, 25 *)
  cr_placements : int;
  cr_deferrals : int;
  cr_evictions : int;  (** pressure migrations initiated *)
  cr_migrations : int;  (** pressure migrations completed *)
  cr_nacks : int;
  cr_departures : int;
  cr_repredictions : int;
  cr_double_places : int;
  cr_log : (int * string) list;
  cr_digest : int;
  cr_fingerprint : string;
  cr_vms : vm_report list;
  cr_host_reports : host_report list;
}

val run : ?workers:int -> t -> horizon_sec:float -> report
(** Drive the fabric to the horizon (or until every trace VM has
    departed). The report is identical at any [workers]. *)

val report_rows : report -> (string * (string * float) option * string) list
(** Every summary field, in printed order: label, run-record entry
    [(key, value)] if it is recorded, printed form. *)

val report_metrics : report -> (string * float) list
(** The recorded entries of {!report_rows}, as the run record's
    ["cluster"] section lists them: [density] first, [repredictions]
    last. *)

val render :
  ?log:bool -> Asman.Config.t -> sched:Asman.Config.sched_kind ->
  dist:Vtrace.dist -> report -> string
(** The stdout of [asman_cli cluster]: a header, the {!report_rows},
    each host's peak and final residents, and with [log] (default
    off) the placement log. *)

val placement_log : t -> (int * string) list
(** The controller's event log (time, event), oldest first; the
    placement-determinism oracle compares it across worker counts. *)

val conservation_errors : t -> string list
(** The cluster-conservation oracle, evaluated after {!run}: no VM
    lost, duplicated, or on two hosts (physically or in the
    controller's books); bookkeeping consistent with each VM's phase;
    capacity never oversubscribed; departures never early and never
    missing once the lifetime plus drain slack fits inside the run;
    the placement log exactly-once per VM. Empty on a clean run. *)
