(** The cross-run regression engine behind [asman compare]: one
    verdict machine covering performance (figure/ablation wall time,
    micro throughput), fairness (attained/entitled ratios) and fuzzer
    health (SimCheck counts).

    Verdict rules, per section:
    - [runs] — wall time; a regression is growth beyond
      [threshold]%, exempting entries whose old wall time is under
      [min_wall] seconds (scheduler noise).
    - [micro] — throughput; a regression is shrinkage beyond
      [threshold]%.
    - [fairness] — deterministic simulator outputs; drift beyond
      [fairness_threshold]% in {e either} direction is a regression.
    - [check] — fuzzer health; any increase of [failures] or
      [timeouts] is a regression, other counters are reported only.
    - [cluster] — deterministic cluster-run outputs; [density*] and
      [p99*] entries drifting beyond [fairness_threshold]% in either
      direction are regressions, migration counters are reported
      only.

    Entries present on only one side are reported, never gated. A
    whole section missing from one side is likewise reported — unless
    [strict_sections] is set, in which case a section that {e
    disappeared} (present in old, absent in new) is itself a
    regression: a broken suite must not pass by emitting fewer
    sections. *)

type thresholds = {
  threshold : float;  (** percent, wall time and micro throughput *)
  min_wall : float;  (** seconds; shorter old runs are not gated *)
  fairness_threshold : float;  (** percent, symmetric *)
  strict_sections : bool;
}

val default : thresholds
(** 25% / 0.25 s / 5% / lax sections. *)

type result = {
  regressions : int;  (** entries (or sections) past their gate *)
  text : string;  (** the printable comparison tables *)
}

val axis_mismatches : Record.t -> Record.t -> string list
(** The axes on which two records differ, each as ["workers 4 vs 1"]:
    seed, scale, workers, topology, sim_jobs, numa and accounting.
    Records that differ on any of them measure different things, so
    [asman compare] refuses them. The queue backend is not an axis:
    wheel against heap is a deliberate differential. *)

val records : thresholds -> Record.t -> Record.t -> result
(** Compare old vs new. Works on any two records (a bench [--json]
    file is one); it does not check {!axis_mismatches}. *)

(** {2 Section extractors (shared with the HTML report and tests)} *)

val runs_of : Record.t -> (string * float) list
(** (figure id, wall seconds). *)

val micro_of : Record.t -> (string * float) list
(** (["bench backend [pN jN] pending"], events/sec). *)

val fairness_of : Record.t -> (string * float) list
(** (theft cell id, attained/entitled ratio). *)

val check_of : Record.t -> (string * float) list
(** (SimCheck counter, value). *)

val cluster_of : Record.t -> (string * float) list
(** (cluster consolidation metric, value). *)
