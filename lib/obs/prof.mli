(** Wall-clock self-profiler: named sections accumulating
    (total seconds, call count).

    The clock is injected (pass [Unix.gettimeofday]) so this library
    stays dependency-free. Thread-safe: Pool workers in other
    domains may time into the same profiler. *)

type section = { label : string; total_sec : float; calls : int }

type t

val create : ?clock:(unit -> float) -> unit -> t
(** Default clock always returns 0 (sections record calls only). *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its wall time to the section — even on
    exceptions. *)

val add : t -> string -> float -> unit
(** Charge [sec] seconds to a section directly. *)

val sections : t -> section list
(** Sorted by label. *)

val reset : t -> unit

val to_text : t -> string
