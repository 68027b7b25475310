(** Invocation environment capture for run records.

    Everything here is best-effort and observation-only: a build
    without git (or a run outside a work tree) records no sha rather
    than failing, and nothing in this module may perturb the
    simulation. *)

val git_info : unit -> (string * bool) option
(** [(sha, dirty)] of the current work tree's HEAD, or [None] when
    git or the repository is unavailable. [dirty] is true when
    tracked files have uncommitted changes. Cached after the first
    call (one process = one invocation = one tree state). *)

val timestamp : unit -> string
(** Local time as ["YYYY-MM-DDTHH:MM:SS"]. *)

val date : unit -> string
(** Local date as ["YYYY-MM-DD"] (the default [bench --json] file stamp). *)
