(** SPEC CPU2000 rate-metric model: N independent copies of a
    compute-bound benchmark per VM, no synchronization.

    The paper uses 176.gcc and 256.bzip2 (4 copies each) as
    high-throughput non-concurrent workloads to measure the collateral
    cost of coscheduling. Run time per round is the time for all
    copies to finish their fixed work. *)

type benchmark = Gcc | Bzip2

type params = {
  bench_name : string;
  chunks : int;  (** work chunks per copy *)
  chunk_compute : int;  (** cycles per chunk *)
  chunk_cv : float;
}

val params :
  benchmark -> freq:Sim_engine.Units.freq -> scale:float -> params
(** bzip2 is ~1/3 longer than gcc, as in SPEC. Raises
    [Invalid_argument] if [scale <= 0]. *)

val workload : ?copies:int -> params -> Workload.t
(** [copies] defaults to 4 (the paper's SPEC-rate configuration);
    copy [i] is pinned to VCPU [i]. Threads restart (rate protocol:
    benchmarks repeat in a batch loop). *)
