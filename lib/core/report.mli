(** Render experiment outcomes as plain-text reports. *)

val outcome : Experiments.t -> Experiments.outcome -> string
(** Title, measured-series table, paper-series table (if any), notes. *)

val vm_table :
  ?extra:string list -> (Runner.vm_metrics * string list) list -> string
(** The per-VM table of a run printout: VM, rounds, mean round time,
    online vs expected rate, over-threshold waits and VCRD flips, then
    one column per [extra] header, filled from each row's own cells. *)

val run : sched:Config.sched_kind -> Scenario.t -> Runner.metrics -> string
(** The stdout of [asman_cli run] on one host: a header, the
    {!vm_table}, watchdog and fault-injector
    counters, the invariant violation count with a line per VM the
    watchdog demoted or the checker flagged, then the first five
    recorded violations. *)

val series_csv : Sim_stats.Series.t list -> string

val trace_csv : Sim_guest.Monitor.trace_entry list -> string
(** Columns: time (cycles), wait (cycles), log2 wait, lock id — the
    raw data behind the Fig 2/8 scatter plots. *)
