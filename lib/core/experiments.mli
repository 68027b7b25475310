(** The per-figure experiment registry.

    One entry per figure of the paper's evaluation (Figures 1, 2 and
    7–12), plus the theft figure after Zhou et al. and the resilience
    figure. Each entry regenerates the figure's data as
    {!Sim_stats.Series.t} values and carries the paper's own numbers
    (digitized from the published figures) for side-by-side
    comparison. Absolute run times are simulator-scale; the
    reproduction target is the {e shape}: orderings, ratios and
    trends, summarized in each outcome's notes. *)

type outcome = {
  series : Sim_stats.Series.t list;  (** measured *)
  expected : Sim_stats.Series.t list;  (** digitized from the paper *)
  notes : string list;  (** shape checks and caveats *)
}

type t = {
  id : string;  (** e.g. "fig7" *)
  title : string;
  description : string;
  run : Config.t -> outcome;
}

val all : t list
(** In paper order: fig1a fig1b fig2 fig7 fig8 fig9 fig10 fig11a
    fig11b fig12a fig12b, then theft and resilience. *)

val find : string -> t option

val ids : unit -> string list

(** {2 Shared building blocks (exposed for the CLI and tests)} *)

val sweep : ('k -> 'r) -> 'k list -> 'k -> 'r
(** [sweep f keys] runs [f] on each key as one job of a single
    {!Pool.map} call, in key order, and returns the lookup from key to
    result (raising [Not_found] on a key not in [keys]). Every
    catalogue entry declares its runs this way. Keys are compared
    structurally, so a key names a scheduler by {!Config.sched_name},
    never holds a {!Config.sched_kind}: a [Custom] one carries a
    closure, on which structural equality raises. *)

val sched_named : string -> Config.sched_kind
(** The built-in scheduler a sweep key names ({!Config.sched_of_name}). *)

val online_rate_points : (int * float) list
(** (weight, expected online rate %) for V1 with 4 VCPUs next to an
    8-VCPU weight-256 Dom0: 256 -> 100, 128 -> 66.7, 64 -> 40,
    32 -> 22.2 (Equations 1-2). *)

val single_vm_scenario :
  Config.t -> sched:Config.sched_kind -> weight:int ->
  workload:Sim_workloads.Workload.t -> Scenario.t
(** A 4-VCPU VM ["V1"] next to Dom0, non-work-conserving (§5.2). *)

val nas_workload : Config.t -> Sim_workloads.Nas.bench -> Sim_workloads.Workload.t

val theft_attackers : string -> (string * Scenario.workload_desc) list
(** An attack's VMs ([dodge], [steal], [launder]) as [(name, workload)]:
    [A1], plus [A2] for the laundering pair. *)

val lu_by_rate :
  Config.t -> Config.sched_kind list -> string * int -> float
(** [lu_by_rate config scheds] sweeps LU's run time ({!nas_runtime})
    under each scheduler, in order, at each weight of
    {!online_rate_points}; the lookup is keyed by (scheduler name,
    weight). Figs 1a and 7 and the out-of-VM ablation read it. *)

val rate_series :
  label:string -> y_name:string -> (int -> float) -> Sim_stats.Series.t
(** One point per {!online_rate_points} entry: x is the online rate,
    y is the function applied to its weight. *)

val nas_runtime :
  Config.t ->
  sched:Config.sched_kind ->
  bench:Sim_workloads.Nas.bench ->
  weight:int ->
  float
(** Run one NAS benchmark alone in V1 (non-work-conserving, §5.2) and
    return its run time in simulated seconds. *)

val fairness_entries : outcome -> (string * float) list
(** Flatten the theft figure's outcome into
    [("<series label> <attack>", attained/entitled ratio)] cells —
    the ["fairness"] section of bench run records.
    (Meaningful on the [theft] outcome; other outcomes produce
    entries keyed by their own series labels.) *)

val wait_bucket_counts :
  Sim_guest.Monitor.t -> (string * int) list
(** Counts of monitored waits in the paper's bands: [>=2^10],
    [>=2^15], [>=2^20] (over-threshold), [>=2^25]. *)
