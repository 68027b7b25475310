(** Conservative windowed coordination of full {!Engine} members —
    the decoupled-VMM execution core.

    Each member is a complete engine (own clock, queue, RNG, trace)
    carrying an independent sub-simulation; the fabric advances all of
    them in lockstep conservative windows on a persistent {!Team} of
    worker domains, flushing deterministic [(time, src, seq)]-ordered
    {!Mailbox}es between windows. Every cross-member interaction must
    go through {!post} at least [lookahead] cycles ahead — members
    never touch each other's state directly — so executed event
    streams depend only on the member partition and message contents,
    never on the worker count. *)

type t

val create : lookahead:int -> Engine.t array -> t
(** Raises [Invalid_argument] on an empty member array or
    [lookahead < 1]. The engines should be freshly built and must
    thereafter only be advanced through {!run}. *)

val members : t -> int
val member : t -> int -> Engine.t

val post : t -> src:int -> dst:int -> time:int -> (unit -> unit) -> unit
(** Mail an event from member [src] to member [dst]. The conservative
    contract requires [time >= Engine.now src + lookahead]; violations
    raise [Invalid_argument]. Delivery happens at the next window
    boundary in [(time, src, per-src seq)] order. Call only from an
    event executing on member [src] (the per-src sequence counter is
    unsynchronized by design). *)

val run : ?workers:int -> ?until:int -> ?stop:(unit -> bool) -> t -> unit
(** Advance all members window by window until every queue is empty,
    the next global event lies strictly after [until] (member clocks
    are then clamped to [until]), or [stop ()] holds at a window
    boundary. [stop] is polled between windows only — member events
    set flags during a window and the run ends at the next boundary,
    keeping the stop point a pure function of event times. {!workers}
    gives the worker-domain count; any value yields identical member
    streams. *)

val workers : ?workers:int -> t -> int
(** The worker-domain count {!run} uses for the same [?workers]: the
    request (default [Domain.recommended_domain_count ()]) clamped to
    [1 .. members]. *)

val windows : t -> int
val cross_posts : t -> int
(** Messages delivered through mailboxes so far. *)

val max_window_mail : t -> int
(** Largest single-window delivery batch (mailbox pressure stat). *)

val events_fired : t -> int
(** Total events fired across members. *)

val fingerprint : t -> string
(** Per-member digest (event count, clock, rolling stream hash) plus
    the window count. Equal across runs of the same partition at any
    worker count; the [-j1]-vs-[-jN] oracle string. *)

val digest : t -> int
(** [fingerprint] folded to one int (order-sensitive over members). *)
