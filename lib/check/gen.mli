(** Seeded scenario generator.

    [spec case_seed] is a pure function of the seed: the same seed
    always yields the same {!Spec.t} (the determinism the corpus and
    [asman repro] rely on). Shapes mix general random scenarios with
    three targeted ones: a {e fairness} shape (the only one that sets
    [check_fairness]), an {e all-HIGH storm} (maximal gang pressure
    under ASMan) and {e chaos} (a random fault profile). *)

val spec : int64 -> Spec.t

val case_seed : seed:int64 -> index:int -> int64
(** The case seed for [--seed seed] at case [index]; decorrelated so
    different run seeds share no cases. *)

val finite_workload : Sim_engine.Rng.t -> Asman.Scenario.workload_desc
(** A workload whose every thread terminates (no restarts):
    [Runner.run_rounds ~rounds:1] on it completes. Draws cover
    compute, lock storms, barriers, semaphores (ping-pong) and
    random lock/compute programs — used by the ported
    [test_properties] generator. *)

