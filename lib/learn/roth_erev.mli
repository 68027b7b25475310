(** Modified Roth–Erev reinforcement learner (Roth & Erev 1995).

    Maintains a propensity [q_x] for each candidate action [x]. The
    paper (Algorithm 1) updates propensities at every VCRD adjusting
    event as [q_x(i+1) = (1 - r) * q_x(i) + U(x, ...)], where [U] is an
    experience-dependent reinforcement (Algorithm 2), then picks the
    action with maximal propensity. This module is the generic
    propensity machinery; the paper-specific [U] lives in
    {!Estimator}. *)

type params = {
  recency : float;  (** r — forgetting of old propensity, in [0, 1) *)
  experimentation : float;  (** e — probability mass spread to other actions *)
  initial_scale : float;  (** s(0) — scale of initial propensities *)
  floor : float;  (** minimum propensity, keeps selection well-defined *)
}

val default_params : params
(** r = 0.1, e = 0.2, s(0) = 1.0, floor = 1e-9. *)

val validate_params : params -> (unit, string) result

type t

val create : params -> candidates:float array -> t
(** Initial propensity of every candidate is [s(0) * A / N] where [A]
    is the mean candidate value and [N] the number of candidates, as in
    the paper. Raises [Invalid_argument] on an empty candidate set or
    invalid params. *)

val params : t -> params

val n : t -> int

val propensity : t -> int -> float

val propensities : t -> float array
(** A copy. *)

val select_best : t -> int
(** Index with maximal propensity (lowest index on ties). *)

val select_probabilistic : t -> Sim_engine.Rng.t -> int
(** Index drawn with probability proportional to propensity. *)

val update : t -> reinforcement:(int -> float) -> unit
(** [update t ~reinforcement] applies
    [q_j <- (1 - r) * q_j + reinforcement j] to every index [j],
    flooring the result. [reinforcement j] sees the {e pre-update}
    propensities via {!propensity}. *)
