(** The cluster consolidation-density experiment and its registry
    glue. Lives here rather than in {!Asman.Experiments} because the
    cluster layer depends on the [asman] library (and so cannot be
    depended on by it); the CLI appends {!experiment} to
    [Experiments.all]. *)

val experiment : Asman.Experiments.t
(** id ["cluster"]: VMs-per-host vs p99 LHP stall, Credit/ASMan/CON x
    first-fit/lifetime-aware, one point per offered load. *)

val registry_entries :
  Asman.Experiments.outcome -> (string * float) list
(** Flatten the outcome into ["cluster"]-section metric cells
    (density and p99 per series point), for the run registry. *)
