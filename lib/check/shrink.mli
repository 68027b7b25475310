(** Greedy spec shrinker.

    Shrink order (most structural first): remove whole VMs, shrink
    workloads (thread counts, op counts, benchmarks onto small
    synthetic equivalents), shrink VCPU counts, drop the fault
    profile, halve the horizon (floored at 50 ms). Each candidate is
    judged by re-running the full case; the first still-failing
    candidate becomes the new current spec and the search restarts
    from it. *)

val minimize :
  ?budget:int ->
  fails:(Spec.t -> Oracle.failure list) ->
  Spec.t ->
  initial_failures:Oracle.failure list ->
  Spec.t * Oracle.failure list
(** [minimize ~fails spec ~initial_failures] greedily shrinks a spec
    known to fail with [initial_failures]. [budget] (default 200)
    bounds the number of [fails] evaluations. Returns the smallest
    still-failing spec reached and its failures. *)
