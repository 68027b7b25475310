(** Hierarchical timing wheel over a pooled, allocation-free event
    store.

    This is the engine's fast event-queue backend (Varghese–Lauck
    scheme 6: hashed hierarchical wheels). Events live in a
    struct-of-arrays slab ({!pool}) and are identified by integer
    slots. Events in the cursor's open 2^16-cycle slot live in a
    "near" slot-heap, which gives exact [(time, seq)] order; later ones
    are filed by fire time into three levels of 64 buckets (2^16, 2^22
    and 2^28 cycles per bucket) that cascade down as the cursor
    advances, and a far-future slot-heap catches events beyond the top
    level's 2^34-cycle window.

    Users normally go through {!Equeue}, which multiplexes this wheel
    with the binary-heap oracle behind one interface. *)

(** {2 Pooled event store} *)

type pool = {
  mutable time : int array;
  mutable seq : int array;
  mutable gen : int array;
  mutable loc : int array;
  mutable link_next : int array;
  mutable link_prev : int array;
  mutable act : (unit -> unit) array;
  mutable free : int;
  mutable cap : int;
}
(** Struct-of-arrays event slab. [time]/[seq] form the unboxed
    ordering key; [loc] says which container holds the slot (a wheel
    bucket index, or one of the [loc_*] sentinels); [gen] is bumped on
    every release so packed handles detect recycled slots; [link_*]
    thread the intrusive bucket lists and the free list. *)

val loc_free : int
val loc_near : int
val loc_far : int

val loc_aux : int
(** Container tag reserved for a backend-owned slot-heap (the binary
    heap oracle in {!Equeue}). *)

val loc_dead : int
(** Cancelled while inside a slot-heap; dropped lazily at the top. *)

val noop : unit -> unit

val pool_create : unit -> pool

val alloc : pool -> time:int -> seq:int -> (unit -> unit) -> int
(** Claim a slot from the free list (growing the slab if needed) and
    initialise it. Returns the slot index; the caller sets [loc]. *)

val release : pool -> int -> unit
(** Recycle a slot: bump its generation, drop the action closure and
    push it on the free list. *)

val handle_of : pool -> int -> int
(** Pack a slot and its current generation into a public handle. *)

val handle_slot : int -> int

val handle_live : pool -> int -> bool
(** Whether a packed handle still refers to a pending event (the
    generation matches and the slot is neither free nor cancelled). *)

(** {2 Slot-heap}

    Binary min-heap of pool slots ordered by the exact lexicographic
    [(time, seq)] key read from the pool arrays — no per-entry
    allocation, used for the near/far regions and the heap oracle. *)
module Sheap : sig
  type t

  val create : unit -> t
  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit
  val push : pool -> t -> int -> unit

  val top : t -> int
  (** Minimum slot without removing it; [-1] when empty. *)

  val pop : pool -> t -> int
  (** Remove and return the minimum slot; [-1] when empty. *)
end

(** {2 Wheel} *)

type t

val create : pool -> t

val insert : t -> int -> unit
(** File a slot by its [time]: into the near heap if it lies in the
    cursor's open 2^16-cycle slot or behind it, else into the lowest
    wheel level whose window contains it, else into the far-future
    heap. Sets the slot's [loc]. *)

val remove : t -> int -> unit
(** Eagerly unlink a slot from its wheel bucket (only valid when
    [loc >= 0]); O(1), leaves no tombstone. The caller releases. *)

val lowest_set_bit : int -> int
(** Position (0..31) of the lowest set bit of a nonzero 32-bit word,
    by a branch-free de Bruijn lookup; the bitmap scans use it. The
    result is unspecified for [0]. *)

val ensure_near : t -> bool
(** Advance the cursor — cascading levels and pulling far-future
    events — until the near heap's top is the queue's live
    [(time, seq)] minimum. [false] iff no live event remains. While the
    near heap is dry, the cursor jumps to the next occupied level-1
    bucket, else the start of the next occupied level-2, else level-3
    bucket (else the next level-3 window), and opens it, instead of
    stepping one 2^16-cycle slot at a time, so the cost follows the
    occupied buckets, not the simulated time elapsed. *)

val near_top_time : t -> int
(** Fire time of the near-heap top; call only after {!ensure_near}
    returned [true]. *)

val take_near : t -> int
(** Pop the near-heap minimum slot; the caller releases it. *)
