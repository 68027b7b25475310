(** Execute one spec and judge it.

    A case run builds the full stack from the spec ([Record]-mode
    runtime invariants, oracle trace categories armed, export hub
    off, queue backend pinned), drives it one measurement window with
    a structural-invariant probe firing every 5 simulated ms, then
    assembles the {!Oracle.input} and runs the catalogue. A clean
    primary run is rerun on the flipped queue backend and compared by
    fingerprint (the determinism oracle). Exceptions anywhere become
    a ["no-crash"] failure — a fuzz case must never kill the run. *)

type fingerprint = {
  fp_now : int;
  fp_events : int;
  fp_ctx_switches : int;
  fp_ipis : int;
  fp_vms : (string * int * int * int) list;
      (** (name, marks, rounds, vcrd transitions) in VM order *)
}

val fingerprint_to_string : fingerprint -> string

val config_of_spec :
  ?queue:Sim_engine.Engine.queue_kind -> Spec.t -> Asman.Config.t
(** The exact config a case runs under ([queue] overrides the spec's
    backend — the determinism rerun). [sim_jobs] passes through: at 2
    or more, {!run} builds the case as decoupled sub-hosts. *)

val run_once :
  ?queue:Sim_engine.Engine.queue_kind ->
  Spec.t ->
  fingerprint * Oracle.failure list
(** One simulation, no determinism rerun, exceptions propagate. *)

val run_cluster_once :
  workers:int -> Spec.t -> Sim_cluster.Cluster.report * string list
(** One datacenter simulation of a cluster spec at the given fabric
    worker count, paired with its conservation-oracle verdict.
    Exceptions propagate. *)

val run : Spec.t -> Oracle.failure list
(** The full judgement: validate, run, oracles, then on clean runs the
    determinism rerun (flipped queue backend). Decoupled specs
    ([sim_jobs >= 2]) are judged instead by a 1-vs-2-worker fabric
    digest rerun, and cluster specs by the cluster-conservation
    oracle and a 1-vs-2-worker placement-determinism rerun. [[]] means
    the case passed everything. *)
