(** Fixed-size worker pool over OCaml 5 domains.

    The experiment harness decomposes every figure and ablation into a
    list of independent jobs — one per data point, each building its
    own [Config]/[Scenario]/[Engine] — and fans them out here.
    {!map} preserves input order and re-raises worker exceptions, so a
    parallel run is observationally identical to [List.map]: with
    per-scenario engines and fixed seeds, results are byte-identical
    at any worker count.

    Each [map] call runs its jobs as the tasks of one
    {!Sim_engine.Team} window, the same worker runtime that drains
    the PDES fabric's members. *)

val default_jobs : unit -> int
(** The [ASMAN_JOBS] environment variable if it parses as a positive
    integer, else [Domain.recommended_domain_count () - 1], floored
    at 1. *)

val set_jobs : int -> unit
(** Set the global worker count used when {!map}'s [?jobs] is omitted
    (the [-j] flag). Values below 1 are clamped to 1; 1 selects the
    sequential path (jobs run inline in the calling domain). *)

val jobs : unit -> int
(** The current global worker count: the last {!set_jobs} value, or
    {!default_jobs} if never set. *)

exception
  Job_timeout of { index : int; elapsed_sec : float; limit_sec : float }
(** A job exceeded [map]'s [timeout_sec]. Jobs are uninterruptible
    domain compute, so the limit is enforced when the job returns:
    the (completed) result is replaced by this exception. *)

val map : ?jobs:int -> ?timeout_sec:float -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] using at
    most [jobs] domains (default {!jobs}[ ()], never more than
    [List.length xs]) and returns the results in input order.

    Workers take job indices in input order from the team's grab
    counter; the calling domain participates as a worker, so
    [jobs = 1] spawns no domain and runs the jobs in input order.
    The first failing job stops the map: jobs not yet started are
    skipped, in-flight jobs finish, and the first exception in
    {e input} order is re-raised (with its backtrace) after every
    worker has joined. [timeout_sec] converts any job
    whose wall time exceeds the limit into a {!Job_timeout} failure
    (post-hoc — see {!Job_timeout}). Each job's wall time is
    recorded in the global accounting (see {!accounting}). *)

(** {2 Per-job wall-time accounting}

    A global, mutex-protected accumulator covering every job executed
    since the last {!reset_accounting} — across nested {!map} calls —
    so a driver can wrap one experiment and report its parallel
    speedup ([busy_sec / wall elapsed]). *)

type job_timing = {
  index : int;  (** position of the job in its [map] input list *)
  wall_sec : float;  (** host wall-clock seconds spent in the job *)
}

type stats = {
  jobs_used : int;  (** largest worker count used since reset *)
  timings : job_timing list;  (** completed jobs, in completion order *)
  busy_sec : float;  (** sum of all job wall times *)
}

val reset_accounting : unit -> unit

val accounting : unit -> stats

val speedup : stats -> wall_sec:float -> float option
(** The parallel speedup [busy_sec / wall_sec] of the jobs in [stats]
    over the [wall_sec] that ran them ([1.] when no wall time
    elapsed); [None] when no job ran, since a speedup of nothing
    measures nothing. *)
