(** Power-of-two bucketed histogram of non-negative integer samples.

    Used for spinlock waiting-time distributions: the paper reports
    counts of waits exceeding 2^10, 2^15, 2^20 and 2^25 CPU cycles.
    Bucket [k] holds samples [v] with [log2_floor (max v 1) = k]. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t v] records one sample. Raises [Invalid_argument] if
    [v < 0]. *)

val count : t -> int
(** Total samples recorded. *)

val sum : t -> int

val min_value : t -> int option
val max_value : t -> int option

val bucket : t -> int -> int
(** [bucket t k] is the number of samples with [log2_floor = k],
    [0 <= k <= 62]. *)

val count_ge_pow2 : t -> int -> int
(** [count_ge_pow2 t k] is the number of samples in buckets [>= k],
    i.e. samples known to be [>= 2{^k}]. Exact for power-of-two
    thresholds because bucket [k] contains exactly the samples in
    [\[2{^k}, 2{^k+1})]. *)

val merge : t -> t -> t
(** Pointwise sum; inputs are unchanged. *)

val mean : t -> float
(** Mean of exact sample values ([nan] when empty). *)
