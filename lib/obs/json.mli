(** The repo's one JSON module: a value type, a printer and a strict
    reader, shared by SimCheck case files, run-registry records, the
    metrics and trace exports, and [asman validate-json].

    Self-contained (the repo carries no JSON dependency). Integers
    and floats are distinct constructors and floats print losslessly,
    so a spec survives [of_string (to_string spec)] exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val escape : Buffer.t -> string -> unit
(** Append [s] with JSON string escapes, without the quotes — for
    streaming writers that cannot build a {!t} (the Chrome trace
    export). *)

val to_string : ?indent:bool -> t -> string
(** [indent] pretty-prints with 2-space indentation (corpus files are
    committed, so keep their diffs readable). *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input: anything outside the
    JSON grammar, raw control characters inside strings, [\u] escapes
    that are not four hex digits, trailing garbage. *)

val validate : string -> (unit, string) result
(** [Ok ()] iff {!of_string} accepts the whole string. *)

val member : string -> t -> t option

val get : string -> t -> of_:(t -> 'a) -> 'a
(** [get key obj ~of_] reads and converts a required field. Raises
    {!Parse_error} if absent. *)

val to_int : t -> int
val to_float : t -> float
val to_string_v : t -> string
val to_bool : t -> bool
val to_list : t -> t list
