(** Deterministic cross-member mailbox with a fused, allocation-free
    post/flush hot path.

    One mailbox per receiving {!Fabric} member. Senders {!post} under
    the mailbox mutex; the window coordinator {!flush}es between
    conservative windows, delivering in the canonical
    [(time, src, per-src seq)] order. Messages live in preallocated
    parallel arrays: a post is four array stores, a flush is an
    in-place insertion sort plus a callback sweep, and nothing is
    allocated per message in steady state (arrays double only when a
    window posts more mail than any window before it). *)

type t

val create : ?cap:int -> unit -> t
(** [create ?cap ()] preallocates room for [cap] messages
    (default 64; grows by doubling). *)

val post : t -> time:int -> src:int -> seq:int -> (unit -> unit) -> unit
(** Append a message. Thread-safe (senders on concurrent domains).
    [seq] must be a per-[src] monotonic counter — it breaks ties
    among equal-time posts from one source; the caller owns the
    counters and the lookahead contract. *)

val length : t -> int
(** Pending messages. Coordinator-only (racy under concurrent posts). *)

val flush : t -> (time:int -> (unit -> unit) -> unit) -> int
(** [flush t sink] delivers every pending message to [sink] in
    [(time, src, seq)] order, clears the mailbox, and returns the
    number delivered. The sink typically schedules the action into
    the destination queue; it must not post back into [t]. *)
