(** Discrete-event simulation engine.

    The engine owns a virtual clock (integer CPU cycles) and an event
    queue. Events are thunks scheduled for a future instant; they fire
    in [(time, insertion-order)] order, so simulations are fully
    deterministic.

    The queue has two run-time selectable backends with identical
    firing semantics: the hierarchical timing wheel (default; O(1)
    schedule and eager cancellation) and the binary-heap oracle kept
    for differential testing. Events live in a pooled slab and handles
    are generation-stamped integers, so the schedule/fire/cancel hot
    path allocates nothing. *)

type t

type handle = Equeue.handle
(** A scheduled event: a packed (generation, slot) immediate integer.
    Operations on a handle ({!cancel}, {!is_pending}, {!fire_time})
    need the owning engine; stale handles — events that fired or were
    cancelled, even if their pool slot has since been recycled — are
    detected by the generation stamp. *)

type queue_kind = Equeue.kind = Wheel_queue | Heap_queue

val set_default_queue : queue_kind -> unit
(** Set the backend used by {!create} when [?queue] is omitted (the
    [--engine-queue] flag). *)

val default_queue : unit -> queue_kind
(** The last {!set_default_queue} value, else [ASMAN_ENGINE_QUEUE]
    from the environment ([wheel]/[heap]), else [Wheel_queue]. *)

val create : ?seed:int64 -> ?queue:queue_kind -> unit -> t
(** [create ?seed ()] is an engine at time 0 with an empty queue and a
    root RNG seeded from [seed] (default [1L]). [queue] picks the
    event-queue backend (default {!default_queue}). *)

val queue_kind : t -> queue_kind

val now : t -> int
(** Current virtual time in cycles. *)

val rng : t -> Rng.t
(** The engine's root RNG. Subsystems should {!Rng.split} it. *)

val trace : t -> Sim_obs.Trace.t
(** The engine's event-trace sink. Created disabled (category mask 0,
    zero-capacity ring) so instrumented subsystems pay one branch per
    potential event; arm it with {!Sim_obs.Trace.enable}. *)

val schedule_at : t -> time:int -> (unit -> unit) -> handle
(** [schedule_at t ~time f] fires [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past. *)

val schedule_after : t -> delay:int -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is
    [schedule_at t ~time:(now t + delay)]. A zero delay fires later in
    the current instant, after already-queued same-time events. *)

val cancel : t -> handle -> unit
(** Cancelling a fired or already-cancelled event is a no-op. A
    pending event in a wheel bucket is unlinked and its slot recycled
    immediately (no tombstone); slot-heap residents are tombstoned
    and dropped when they surface. *)

val is_pending : t -> handle -> bool
(** [is_pending t h] is [true] iff the event has neither fired nor
    been cancelled. *)

val fire_time : t -> handle -> int
(** The virtual time a pending event is scheduled for. Raises
    [Invalid_argument] on a stale (fired/cancelled) handle. *)

val pending_count : t -> int
(** Number of live (non-cancelled) events in the queue. O(1): reads
    a counter maintained on schedule/fire/cancel rather than folding
    over the queue. *)

val step : t -> bool
(** [step t] fires the next event. [false] if the queue was empty. *)

val run : ?until:int -> t -> unit
(** [run ?until t] fires events until the queue is empty, the engine
    is {!halt}ed, or the next event is strictly after [until] (the
    clock is then advanced to [until]). *)

val halt : t -> unit
(** Stop the current {!run} after the in-flight event returns. *)

val halted : t -> bool

val events_fired : t -> int
(** Total events executed since creation (simulation-cost metric). *)

val stream_fp : t -> int
(** Order-sensitive rolling hash of every fired event's time since
    creation. Two engines that executed the same event stream carry
    equal fingerprints; the decoupled fabric's worker-count-invariance
    gate compares these per member. *)

val next_time : t -> int option
(** Fire time of the earliest pending event, or [None] on an empty
    queue. Cancelled events never surface. O(live queue descent), no
    extraction — the fabric's window-bound probe. *)

val periodic :
  t ->
  start:int ->
  period:int ->
  ?jitter:(unit -> int) ->
  (unit -> unit) ->
  unit ->
  unit
(** [periodic t ~start ~period ?jitter f] fires [f] at [start] and
    then repeatedly [period + jitter ()] cycles after each firing
    (jitter is clamped to be non-negative; default none). The action
    runs before the next occurrence is inserted, so two chains created
    in order keep their relative insertion order at shared instants.
    Returns a stop function that cancels the pending occurrence and
    ends the chain — the cancellation path used by fault windows. Raises
    [Invalid_argument] if [period <= 0]. *)
