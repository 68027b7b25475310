(** The per-figure experiment registry.

    One entry per figure of the paper's evaluation (Figures 1, 2 and
    7–12). Each entry regenerates the figure's data as
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
    fig11b fig12a fig12b. *)

val find : string -> t option

val ids : unit -> string list

(** {2 Shared building blocks (exposed for the CLI and tests)} *)

val online_rate_points : (int * float) list
(** (weight, expected online rate %) for V1 with 4 VCPUs next to an
    8-VCPU weight-256 Dom0: 256 -> 100, 128 -> 66.7, 64 -> 40,
    32 -> 22.2 (Equations 1-2). *)

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
