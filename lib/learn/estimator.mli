(** Coscheduling-duration estimator — Algorithms 1 and 2 of the paper.

    Each {e adjusting event} (detection of an over-threshold spinlock)
    asks the estimator for the lasting time [x_{i+1}] of the locality
    of synchronization that is starting. The estimator learns from the
    observed interval [z_i] between consecutive adjusting events:

    - [z_i - x_i <= delta] means {e under-coscheduling}: the next
      over-threshold spinlock arrived (almost) immediately after the
      coscheduling window closed, so the window was too short — all
      longer candidates are reinforced with [1 - e].
    - otherwise the chosen duration sufficed; the chosen candidate is
      reinforced with [(z_i - x_i) / (z_{i-1} - x_{i-1}) * (1 - e)].

    The first two events select probabilistically (exploration); later
    events pick the maximal-propensity candidate.

    Deviations from the paper (it leaves these corners unspecified):
    the slack ratio is clamped to [\[0, ratio_cap\]] and the previous
    slack is floored at one cycle, keeping the recurrence defined when
    slacks are zero or negative. *)

type params = {
  learner : Roth_erev.params;
  candidates_cycles : int array;  (** N possible lasting times *)
  delta_cycles : int;  (** Δ — slack below which we under-coscheduled *)
  ratio_cap : float;  (** clamp for the slack ratio reinforcement *)
}

val default_params : slot_cycles:int -> params
(** [delta_cycles] = 2 slots (an over-threshold spinlock within two
    slots of the window closing means the locality outlived the
    estimate), [ratio_cap] = 4. *)

type t

val create : params -> Sim_engine.Rng.t -> t

val on_adjusting_event : t -> now:int -> int
(** [on_adjusting_event t ~now] records an adjusting event at virtual
    time [now] and returns the estimated lasting time (cycles) for the
    coscheduling window to open now. [now] must not decrease across
    calls. *)

val events_seen : t -> int

val last_estimate : t -> int option
(** Estimate returned by the most recent adjusting event. *)

val propensities : t -> float array
(** Exposed for inspection and tests. *)

val candidates : t -> int array
