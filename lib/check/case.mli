(** Execute one spec and judge it.

    A case runs the shape its spec names: a single host, decoupled
    sub-hosts on the PDES fabric ([sim_jobs >= 2]), or a simulated
    datacenter ([cluster = Some _]). A single-host run builds the full
    stack ([Record]-mode runtime invariants, oracle trace categories
    armed but nothing published for export, queue backend pinned),
    drives it one measurement window with a structural-invariant probe
    firing every 5 simulated ms, then assembles the {!Oracle.input}
    and runs the catalogue. A cluster run is judged by the
    cluster-conservation oracle; a decoupled run has no first-run
    oracle.

    Every shape then shares one determinism check: a clean first run
    is rerun a second way and the two outcomes compared — the single
    host on the flipped queue backend (oracle ["determinism"],
    fingerprint of time, events, switches, IPIs and per-VM progress),
    decoupled and cluster cases on two fabric workers instead of one
    (["decouple-workers"], fabric digest and event count;
    ["placement-determinism"], placement log and digest). Exceptions
    in the first run become a ["no-crash"] failure, in the rerun a
    failure of that shape's determinism oracle — a fuzz case must
    never kill the run. *)

val run : Spec.t -> Oracle.failure list
(** The full judgement: validate, run, oracles, then the determinism
    rerun on clean runs. [[]] means the case passed everything. *)
