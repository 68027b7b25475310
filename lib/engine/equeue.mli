(** Event-queue dispatch: the timing-wheel fast path and the
    binary-heap oracle behind one interface.

    Both backends share the pooled handle representation of {!Wheel}
    and order events by the exact lexicographic [(time, seq)] key, so
    their pop sequences — and therefore whole simulations — are
    identical event for event. The wheel is the default; the heap is
    kept for differential testing (`--engine-queue=heap`). *)

type kind = Wheel_queue | Heap_queue

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Recognises ["wheel"] and ["heap"] (case-insensitive). *)

type t

type handle = int
(** A packed (generation, slot) reference to a pooled event — an
    immediate integer, so scheduling allocates nothing. Stale handles
    (to events that fired, were cancelled, or whose slot has been
    recycled) are detected by the generation stamp. *)

val create : kind -> t

val kind : t -> kind

val length : t -> int
(** Live (scheduled − fired − cancelled) events; O(1). *)

val is_empty : t -> bool

val schedule : t -> time:int -> (unit -> unit) -> handle
(** Insert an event; the sequence number (FIFO tie-break at equal
    times) is assigned internally and monotonically. *)

val is_pending : t -> handle -> bool

val fire_time : t -> handle -> int
(** Scheduled fire time. Raises [Invalid_argument] on a stale
    handle (fired/cancelled events may have been recycled). *)

val cancel : t -> handle -> bool
(** [cancel t h] is [true] iff the event was still pending: wheel
    residents are unlinked and recycled eagerly, slot-heap residents
    tombstoned and dropped lazily. Stale handles return [false]. *)

val next_time : t -> int option
(** Fire time of the live [(time, seq)]-minimum event, without
    extracting it; [None] on an empty queue. The backend descent is
    shared with {!pop}, so a following [pop] re-finds the minimum in
    O(1). The conservative {!Fabric} uses it to compute the global
    safe horizon. *)

type pop_result =
  | Event of int * (unit -> unit)  (** fire time and action *)
  | Beyond  (** next live event is after [limit]; left queued *)
  | Empty

val pop : ?limit:int -> t -> pop_result
(** Extract the live [(time, seq)]-minimum event in one queue
    descent. With [limit], an event strictly after it is left queued
    and [Beyond] is returned. *)

val drain : t -> limit:int -> (int -> (unit -> unit) -> unit) -> unit
(** [drain t ~limit f] pops and applies [f time action] to every live
    event with fire time at or below [limit], in [(time, seq)] order —
    exactly a [pop ~limit] loop, minus the per-event [pop_result] and
    option allocations. [f] may schedule further events; ones landing
    at or below [limit] fire within the same drain. *)
