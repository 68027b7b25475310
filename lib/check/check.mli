(** The fuzz driver: generate N cases from a run seed, fan them out
    over the worker pool, shrink every failure, and report.

    Case verdicts are independent (each case builds its own engine,
    VMM and registry), so the fan-out is deterministic at any worker
    count. Shrinking runs sequentially afterwards — there is rarely
    more than one failure, and shrink candidates must be evaluated
    in order. *)

type failure_report = {
  fr_index : int;  (** case index within the run *)
  fr_seed : int64;  (** case seed: [Gen.spec fr_seed] regenerates it *)
  fr_spec : Spec.t;  (** as generated *)
  fr_failures : Oracle.failure list;
  fr_shrunk : Spec.t;  (** minimal still-failing spec *)
  fr_shrunk_failures : Oracle.failure list;
}

type timeout_report = { tr_index : int; tr_seed : int64; tr_limit_sec : float }

type report = {
  cases : int;
      (** cases with a verdict ([cases] requested; fewer only when a
          timeout aborted the run) *)
  failures : failure_report list;
  timeouts : timeout_report list;
      (** a timed-out case is a reported failure with its seed, never
          silently dropped *)
}

val passed : report -> bool

val run :
  ?jobs:int ->
  ?timeout_sec:float ->
  ?shrink_budget:int ->
  cases:int ->
  seed:int64 ->
  unit ->
  report

val summary_kv : report -> (string * float) list
(** Fuzzer-health counters for a run-registry record's ["check"]
    section: [cases], [failures], [timeouts] and [shrunk] (failures
    whose minimized spec still fails). *)

val failure_summary : failure_report -> string

val write_repros : ?dir:string -> ?record_id:string -> report -> string list
(** Write each failure's shrunk spec as a JSON case file (CI uploads
    these as artifacts); returns the paths. Each file is stamped with
    {!Spec.provenance} — the finding case seed, plus [record_id] (the
    check run's registry record) when given — shown by [asman repro]. *)
