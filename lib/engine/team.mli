(** Persistent worker-domain team with a per-window generation
    barrier — the one worker runtime of the program: {!Fabric.run}
    drains its members here window by window, and [Asman.Pool.map]
    runs each call's jobs as the tasks of a single window (ignoring
    [~limit]).

    [tasks] numbered drainable units share one [work i ~limit]
    closure; each {!window} distributes the unit indices over the
    team through an atomic grab counter and barriers before
    returning. Which domain drains which unit is scheduling noise —
    determinism must come from the caller's window protocol. *)

type t

val create : workers:int -> tasks:int -> work:(int -> limit:int -> unit) -> t
(** Spawn [workers - 1] domains (clamped to [max 1 (min workers
    tasks)]). With one worker, no domain is spawned and windows run
    sequentially on the caller. The team persists until {!shutdown} —
    spawn cost is paid once, not per window. *)

val window : t -> limit:int -> unit
(** Run one window: every unit gets [work i ~limit] exactly once,
    then barrier. The first exception a unit raised is re-raised
    here, after the barrier, so the team is never left mid-window. *)

val shutdown : t -> unit
(** Stop and join the spawned domains. Idempotent only in the
    one-worker case; call exactly once otherwise. *)
