(** A SimCheck case: the complete, serializable description of one
    randomly generated full-stack scenario.

    The spec is the unit of reproduction — the generator emits one
    from a case seed, the shrinker rewrites it, [asman repro] and the
    committed [test/corpus/] replay it from JSON. Everything the run
    depends on is in here; rebuilding a spec under the same binary is
    bit-for-bit deterministic. *)

type vm = {
  v_name : string;
  v_weight : int;
  v_vcpus : int;
  v_workload : Asman.Scenario.workload_desc option;  (** [None] = idle VM *)
}

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
  cl_policy : string;  (** name, as {!Sim_cluster.Placement.policy_of_name} *)
  cl_dist : string;  (** name, as {!Sim_cluster.Vtrace.dist_of_name} *)
  cl_vms : int;  (** trace length (arriving VMs) *)
}
(** The cluster axis: the case is a whole simulated datacenter driven
    by a seeded arrival/departure trace over [horizon_sec]. *)

type t = {
  seed : int64;  (** the scenario engine's seed *)
  sched : string;  (** scheduler name, as {!Asman.Config.sched_of_name} *)
  scale : float;
  work_conserving : bool;
  faults : string;  (** fault profile name; ["none"] = clean *)
  queue : string;  (** event-queue backend: ["wheel"] or ["heap"] *)
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
  accounting : string;
      (** credit-accounting discipline: ["precise"] (default when
          absent from older corpus JSON) or ["sampled"] *)
  check_entitlement : bool;
      (** set only by the generator's dedicated attack shape (attacker
          VMs plus sustained CPU-bound victims; false when absent from
          older corpus JSON); the entitlement oracle runs only on such
          cases, where attacker-vs-victim attainment is meaningful *)
  vms : vm list;  (** empty on cluster cases: the trace is the VM list *)
  cluster : cluster option;
      (** [Some _]: judge with the cluster-conservation and
          placement-determinism oracles instead of the coupled trace
          oracles; [None] (the default when absent from older corpus
          JSON) keeps the single-host path *)
  provenance : provenance option;
      (** corpus bookkeeping, not a run input: [None] on freshly
          generated cases and pre-provenance corpus files *)
}

val pcpus : t -> int

val to_json : t -> Sim_obs.Json.t
val of_json : Sim_obs.Json.t -> t

val to_string : t -> string
(** Indented JSON (corpus files are committed; keep diffs readable). *)

val of_string : string -> t
(** Raises {!Sim_obs.Json.Parse_error} on malformed input. *)

val load : string -> t
val save : t -> string -> unit

val validate : t -> (unit, string) result
(** Structural sanity before attempting to build the scenario. *)

(** {2 Realisation} — resolve names to live configuration. All raise
    [Invalid_argument] on names {!validate} would have rejected. *)

val sched_kind : t -> Asman.Config.sched_kind
val queue_kind : t -> Sim_engine.Engine.queue_kind
val fault_profile : t -> Sim_faults.Fault.profile
val accounting_mode : t -> Sim_vmm.Vmm.accounting
val vm_descs : t -> Asman.Scenario.vm_desc list
val cluster_policy : t -> Sim_cluster.Placement.policy
val cluster_dist : t -> Sim_cluster.Vtrace.dist

val is_attack_vm : vm -> bool
(** The VM's workload descriptor is one of the [W_attack_*] shapes —
    the entitlement oracle's attacker/victim split. *)
