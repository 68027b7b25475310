(** The on-disk run registry: a directory ([runs/] by default) of one
    JSON record per invocation.

    The directory is chosen by [$ASMAN_RUNS] — unset means [runs/],
    the empty string disables recording entirely. Writing a record is
    observation-only: it happens after the simulation finished and
    never touches simulator state. *)

val dir : unit -> string option
(** Resolved registry directory, or [None] when recording is
    disabled ([ASMAN_RUNS=""]). *)

val fresh_id : kind:string -> string
(** A unique record id: timestamp + kind + pid (+ a per-process
    counter when one process records twice in a second). *)

val save : ?dir:string -> Record.t -> string
(** Write the record as [<dir>/<id>.json] (creating the directory)
    and return the path. [dir] defaults to {!dir} and raises
    [Invalid_argument] when recording is disabled. *)

val publish : ?json:string -> Record.t -> unit
(** Write the record to [json] when given (a failure raises: the
    caller asked for that file), then {!save} it into {!dir} unless
    recording is disabled, noting each path on stderr. A [Sys_error]
    from the registry save is printed to stderr and swallowed:
    recording never fails the run. *)

val load : string -> Record.t
(** Parse one record file. Raises {!Sim_obs.Json.Parse_error} / [Sys_error]. *)

val list : ?dir:string -> unit -> Record.t list
(** Every parseable record in the directory, sorted by (date, id).
    Non-record files (e.g. a [notes.txt]) are skipped. An absent
    directory is an empty registry. *)

val resolve : ?dir:string -> string -> Record.t
(** Accept a run id (looked up in the registry directory) or a path
    to a record file. Raises [Sys_error] when nothing matches and
    {!Sim_obs.Json.Parse_error} when the file is not a record. *)
