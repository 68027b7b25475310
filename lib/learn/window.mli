(** The coscheduling window of Algorithm 1, one per domain and
    detector.

    Each {e adjusting event} asks the domain's {!Estimator} for the
    lasting time [x] of the locality that is starting, raises VCRD
    through [high] and keeps it HIGH until the domain has consumed
    [x * vcpus] guest online cycles since the latest event; then it
    lowers VCRD through [low]. A further event inside the window is
    simply the next adjusting event: the estimate is refreshed and
    the window extended. The in-VM Monitoring Module feeds it
    over-threshold spinlocks; the VMM's out-of-VM detector feeds it
    pause-loop exits. Only the signal and the sinks differ. *)

type t

val create :
  Estimator.params ->
  Sim_engine.Rng.t ->
  engine:Sim_engine.Engine.t ->
  vcpus:int ->
  online:(unit -> int) ->
  high:(unit -> unit) ->
  low:(unit -> unit) ->
  t
(** [online] reads the domain's cumulative guest online cycles;
    [high] and [low] deliver the VCRD changes. Binds the window's one
    engine timer, idle until the first {!adjusting_event}. *)

val adjusting_event : t -> unit
(** Estimate, disarm the end check, [high ()], set the budget and
    its online-cycle anchor, re-arm the check. *)

val armed : t -> bool
(** A HIGH window is open: its end check is queued. *)

val estimator : t -> Estimator.t

val park : t -> unit
(** Source-side half of a domain migration: note whether the window
    is open, then free its timer on the current engine. Must run on
    the source host, since it mutates that engine's queue and slab. *)

val retarget : t -> engine:Sim_engine.Engine.t -> unit
(** Destination-side half: bind a fresh timer on [engine] and, if
    {!park} interrupted an open window, re-arm it there. The budget
    is metered in guest online cycles, which are continuous across
    hosts, so the window survives the move (its next check lands one
    re-arm delay after the attach instant instead of the original
    arm instant, part of the modeled stop-and-copy latency). *)
