(** A SimCheck case: the complete, serializable description of one
    randomly generated full-stack scenario.

    The spec is the unit of reproduction — the generator emits one
    from a case seed, the shrinker rewrites it, [asman repro] and the
    committed [test/corpus/] replay it from JSON. Everything the run
    depends on is in here; rebuilding a spec under the same binary is
    bit-for-bit deterministic.

    Every enumerated field (scheduler, fault profile, queue backend,
    accounting discipline, placement policy, lifetime distribution)
    holds its typed value: names are parsed once, at the JSON boundary
    ({!of_json} rejects an unknown one), and printed back with their
    modules' canonical names. *)

type provenance = {
  pv_record : string option;
      (** run-registry record id of the check run that found it;
          [None] when the registry was disabled at write time *)
  pv_seed : int64;  (** the case seed that generated the failing spec *)
}
(** Where a corpus file came from: stamped onto shrunk repros by
    {!Check.write_repros}, shown by [asman repro], round-tripped
    through the corpus JSON ([found_seed]/[found_record] keys). *)

type cluster = {
  cl_hosts : int;  (** datacenter size *)
  cl_trace_seed : int64;
      (** seeds {!Sim_cluster.Vtrace.generate}; independent of the
          spec seed so shrinking one never perturbs the other *)
  cl_policy : Sim_cluster.Placement.policy;
  cl_dist : Sim_cluster.Vtrace.dist;  (** lifetime distribution *)
  cl_vms : int;  (** trace length (arriving VMs) *)
}
(** The cluster axis: the case is a whole simulated datacenter driven
    by a seeded arrival/departure trace over [horizon_sec]. *)

type t = {
  seed : int64;  (** the scenario engine's seed *)
  sched : Asman.Config.sched_kind;
  scale : float;
  work_conserving : bool;
  faults : Sim_faults.Fault.profile;  (** {!Sim_faults.Fault.none} = clean *)
  queue : Sim_engine.Engine.queue_kind;  (** event-queue backend *)
  sim_jobs : int;
      (** [--sim-jobs]: [1] (the default when absent from older
          corpus JSON) runs one host on one engine. [N >= 2] runs the
          scenario as [N] decoupled sub-hosts on the windowed PDES
          fabric and judges it with the worker-invariance oracle (the
          fabric digest must not depend on the worker count) instead
          of the trace oracles. Older corpus JSON may still carry a
          ["decouple"] key; it is ignored. *)
  sockets : int;
  cores_per_socket : int;
  horizon_sec : float;  (** simulated measurement window *)
  check_fairness : bool;
      (** set only by the generator's dedicated fairness shape (capped
          mode, restarting CPU-bound workloads, distinct weights); the
          proportionality oracle runs only on such cases *)
  accounting : Sim_vmm.Vmm.accounting;
      (** credit-accounting discipline: [Precise] when absent from
          older corpus JSON *)
  check_entitlement : bool;
      (** set only by the generator's dedicated attack shape (attacker
          VMs plus sustained CPU-bound victims; false when absent from
          older corpus JSON); the entitlement oracle runs only on such
          cases, where attacker-vs-victim attainment is meaningful *)
  vms : Asman.Scenario.vm_desc list;
      (** empty on cluster cases: the trace is the VM list; a
          [vd_workload] of [None] is an idle VM *)
  cluster : cluster option;
      (** [Some _]: judge with the cluster-conservation and
          placement-determinism oracles instead of the coupled trace
          oracles; [None] (the default when absent from older corpus
          JSON) keeps the single-host path *)
  provenance : provenance option;
      (** corpus bookkeeping, not a run input: [None] on freshly
          generated cases and pre-provenance corpus files *)
}

val to_json : t -> Sim_obs.Json.t

val of_json : Sim_obs.Json.t -> t
(** Raises {!Sim_obs.Json.Parse_error} on a missing or mistyped key
    and on an unknown scheduler, fault profile, queue backend,
    accounting discipline, placement policy or lifetime distribution
    name. *)

val to_string : t -> string
(** Indented JSON (corpus files are committed; keep diffs readable). *)

val of_string : string -> t
(** Raises {!Sim_obs.Json.Parse_error} on malformed input, as {!of_json}. *)

val load : string -> t
val save : t -> string -> unit

val validate : t -> (unit, string) result
(** Structural sanity before attempting to build the scenario:
    topology, horizon, scale, VM sizes, and the decoupled and cluster
    builders' preconditions. *)
