(** Cross-scenario observability registry.

    Experiment figures construct scenarios deep inside their job
    functions; {!Scenario.build} publishes each scenario built with
    [Config.obs.metrics] on here (its trace and metrics registry,
    labelled), so the CLI can export everything after the run.
    Mutex-protected: parallel {!Pool} jobs publish from their own
    domains. *)

type entry = {
  label : string;
      (** [<sched>/<vm>(<workload>,w<weight>)+.../seed<N>]: the
          scheduler, each VM's name, workload and weight, and the
          seed; {!drain} makes it unique *)
  freq_khz : int;
  pcpus : int;
  vm_names : (int * string) list;  (** domain id -> VM name *)
  trace : Sim_obs.Trace.t;
  metrics : Sim_obs.Metrics.t;
}

val register : entry -> unit

val drain : unit -> entry list
(** The published entries, emptying the registry. Sorted by label;
    entries whose labels are equal are ordered by their metrics
    snapshot, then their trace, and all but the first get a [#2],
    [#3], ... suffix. Labels come out unique and the order does not
    depend on publication order, so exports are identical at any
    worker count. *)

(** {1 Combined exporters} *)

val chrome_json : entry list -> string
(** One Chrome [trace_event] document; each entry becomes its own
    process ([pid] = position + 1) named by its label. *)

val metrics_text : entry list -> string

val metrics_json : entry list -> string
(** [{"label": {...}, ...}] — one metrics snapshot object per entry. *)
