(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit
    [Rng.t] so that simulations are reproducible bit-for-bit from a
    seed, and independent subsystems can be given independent streams
    via {!split}. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Two generators created from
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state. *)

val split : t -> t
(** [split t] derives a statistically independent child stream and
    advances [t]. *)

val next_int64 : t -> int64
(** Raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)

type lognormal
(** The parameters of a log-normal deviate, computed once by
    {!lognormal_params} and reused by every {!lognormal_int} draw. *)

val lognormal_params : mean:float -> cv:float -> lognormal
(** A log-normal with the given arithmetic mean and coefficient of
    variation: [sigma = sqrt (log (1 + cv^2))] and
    [mu = log mean - sigma^2 / 2]. *)

val lognormal_int : t -> lognormal -> int
(** [lognormal_int t p] draws [x = exp (mu + sigma * z)] with [z] a
    standard normal deviate (Box–Muller) and returns
    [Int.max 1 (int_of_float x)]. A [cv <= 0] takes [x = mean]
    exactly, without drawing. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly chosen element. Raises
    [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
