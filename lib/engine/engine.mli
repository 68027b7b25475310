(** Discrete-event simulation engine.

    The engine owns a virtual clock (integer CPU cycles) and an event
    queue. Events are thunks scheduled for a future instant; they fire
    in exact [(time, seq)] order, where [seq] counts schedule calls, so
    same-instant events fire first-in first-out and simulations are
    fully deterministic.

    The queue has two run-time selectable backends with identical
    firing semantics, both in this module:

    - {b Timing wheel} ([Wheel_queue], the default; Varghese–Lauck
      hashed hierarchical wheels). Events in the cursor's open
      2^16-cycle slot live in a "near" slot-heap that gives the exact
      order; later ones are filed by fire time into three levels of 64
      buckets (2^16, 2^22 and 2^28 cycles per bucket) that cascade
      down as the cursor advances, and a far-future slot-heap holds
      events beyond the top level's 2^34-cycle window; when only those
      remain, the cursor fast-forwards to the earliest one's window.
      Each level keeps an occupancy bitmap, so when the near heap runs
      dry the cursor jumps to the next occupied bucket instead of
      stepping one slot at a time. Scheduling is O(1). A cancelled
      event is removed at once wherever it sits: unlinked from its
      bucket, or taken out of its slot-heap through the slot's heap
      position.
    - {b Binary-heap oracle} ([Heap_queue]): every event in one
      slot-heap, kept for differential testing ([--engine-queue=heap]).

    Events live in a pooled struct-of-arrays slab recycled through a
    free list, and handles are generation-stamped integers, so the
    schedule/fire/cancel hot path allocates nothing.

    Two kinds of event share the slab. A one-shot ({!schedule_at})
    stores its closure when scheduled and drops it when it fires or is
    cancelled. A {!timer} binds its closure to a slot once; arming,
    disarming and firing it then write only integers, so a recurring
    event pays neither allocation nor OCaml's write barrier. *)

type t

type handle = int
(** A scheduled event: a packed (generation, slot) immediate integer.
    Operations on a handle ({!cancel}, {!is_pending}, {!fire_time})
    need the owning engine; stale handles — events that fired or were
    cancelled, even if their pool slot has since been recycled — are
    detected by the generation stamp. *)

type queue_kind = Wheel_queue | Heap_queue

val kind_name : queue_kind -> string

val kind_of_name : string -> queue_kind option
(** Recognises ["wheel"] and ["heap"] (case-insensitive). *)

val create : ?seed:int64 -> ?queue:queue_kind -> unit -> t
(** [create ?seed ()] is an engine at time 0 with an empty queue and a
    root RNG seeded from [seed] (default [1L]). [queue] picks the
    event-queue backend (default [Wheel_queue]). *)

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
    pending event is removed from the queue and its slot recycled at
    once. *)

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

type timer [@@immediate]
(** A recurring event: a slab slot bound to one action for its whole
    life. It is idle or armed; firing it leaves it idle and still
    bound. Its operations need the engine that created it. *)

val timer : t -> (unit -> unit) -> timer
(** [timer t f] claims a slot and binds [f] to it: the one closure
    store the timer ever makes. The timer starts idle. *)

val no_timer : timer
(** A placeholder for a timer field that is not bound yet (or whose
    timer was freed). It is never {!armed}, and {!disarm} ignores it;
    {!arm} and {!free_timer} raise [Invalid_argument] on it. *)

val arm : t -> timer -> delay:int -> unit
(** [arm t tm ~delay] queues an idle timer to fire [delay] cycles from
    now. It takes the next sequence number exactly as
    {!schedule_after} would, so a timer and a one-shot scheduled in
    the same order fire in the same order. Raises [Invalid_argument]
    on a negative delay or a timer that is not idle. *)

val disarm : t -> timer -> unit
(** Take an armed timer out of the queue at once; it is idle again and
    may be re-armed in the same instant. A no-op on an idle timer. *)

val armed : t -> timer -> bool

val free_timer : t -> timer -> unit
(** Disarm the timer and return its slot to the engine; the timer must
    not be used again. *)

val step : t -> bool
(** [step t] fires the next event. [false] if the queue was empty. *)

val run : ?until:int -> t -> unit
(** [run ?until t] fires events until the queue is empty, the engine
    is {!halt}ed, or the next event is strictly after [until] (the
    clock is then advanced to [until]). The loop itself allocates
    nothing per fired event. *)

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
    The chain is one {!timer}. Returns a stop function that disarms
    and frees it, ending the chain (a second call is a no-op) — the
    cancellation path used by fault windows. Raises [Invalid_argument]
    if [period <= 0]. *)

val lowest_set_bit : int -> int
(** Position (0..31) of the lowest set bit of a nonzero 32-bit word,
    by the branch-free de Bruijn lookup the wheel's bitmap scans use.
    The result is unspecified for [0]. Also used by the run queues'
    occupancy scan ([Sim_vmm.Runqueue.next_occupied]) and tested
    exhaustively. *)
