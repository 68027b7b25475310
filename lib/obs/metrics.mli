(** Metrics registry: named counters / gauges / histograms registered
    by subsystem, snapshotted in one call.

    One registry per simulation (owned by the Vmm), never global —
    parallel Pool jobs each build their own, so snapshots are
    deterministic at any worker count. *)

type key = private { subsystem : string; name : string; vm : string option }

val key_to_string : key -> string
(** ["subsystem/name"] or ["subsystem/name{vm=V}"]. *)

type counter

val incr : ?by:int -> counter -> unit

val value : counter -> int
(** Current count — lets owners keep thin read accessors over
    registry-backed counters. *)

type histogram

val observe : histogram -> int -> unit
(** Add a value; bucketed by log2. *)

type t

val create : unit -> t

val counter : t -> subsystem:string -> ?vm:string -> name:string -> unit -> counter
(** Register and return a fresh counter. Re-registering a key
    replaces the previous instrument. *)

val gauge : t -> subsystem:string -> ?vm:string -> name:string -> (unit -> int) -> unit
(** Register a gauge: the closure is evaluated at snapshot time, so
    existing subsystem counters join the registry without moving. *)

val histogram : t -> subsystem:string -> ?vm:string -> name:string -> unit -> histogram

(** {1 Snapshots} *)

type value =
  | Int of int
  | Hist of { count : int; sum : int; max : int; buckets : int array }

type sample = { key : key; value : value }

type snapshot = sample list
(** Sorted by (subsystem, name, vm) — deterministic regardless of
    registration order. *)

val snapshot : t -> snapshot

val diff : base:snapshot -> snapshot -> snapshot
(** Pointwise [snap - base] on Int samples (keys missing from [base]
    pass through); histograms pass through unchanged. Both arguments
    must be sorted by key, as {!snapshot} returns them: one merge
    walk pairs their samples. *)

val find : snapshot -> subsystem:string -> ?vm:string -> name:string -> unit -> int option

val get : snapshot -> subsystem:string -> ?vm:string -> name:string -> unit -> int
(** [find] defaulting to 0. *)

val to_text : snapshot -> string

val to_json : snapshot -> Json.t
(** [{"metrics": [...]}]: one object per sample; histograms carry
    their nonzero log2 buckets. *)
