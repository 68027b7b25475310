(** The on-disk run registry: a directory ([runs/] by default) of one
    JSON record per invocation.

    The directory is chosen by [$ASMAN_RUNS] — unset means [runs/],
    the empty string disables recording entirely. Writing a record is
    observation-only: it happens after the simulation finished and
    never touches simulator state. *)

val dir : unit -> string option
(** Resolved registry directory, or [None] when recording is
    disabled ([ASMAN_RUNS=""]). *)

val ensure_dir : string -> unit
(** [mkdir -p], for callers that park other run state (e.g. the
    bench cost cache) next to the records. *)

val fresh_id : kind:string -> string
(** A unique record id: timestamp + kind + pid (+ a per-process
    counter when one process records twice in a second). *)

val write : string -> Record.t -> unit
(** Write the record, pretty-printed, to the given path. *)

val save : ?dir:string -> Record.t -> string
(** Write the record as [<dir>/<id>.json] (creating the directory)
    and return the path. [dir] defaults to {!dir} and raises
    [Invalid_argument] when recording is disabled. *)

val save_if_enabled : Record.t -> string option
(** {!save} into {!dir}, or [None] when disabled. *)

val load : string -> Record.t
(** Parse one record file. Raises {!Sim_obs.Json.Parse_error} / [Sys_error]. *)

val list : ?dir:string -> unit -> Record.t list
(** Every parseable record in the directory, sorted by (date, id).
    Non-record files (e.g. [cost_cache]) are skipped. An absent
    directory is an empty registry. *)

val resolve : ?dir:string -> string -> Record.t
(** Accept a run id (looked up in the registry directory) or a path
    to a record file. Raises [Sys_error] when nothing matches and
    {!Sim_obs.Json.Parse_error} when the file is not a record. *)
