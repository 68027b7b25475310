(** Decoupled VMM: one scenario as [sim_jobs] parallel sub-hosts.

    A single host ([--sim-jobs 1], the default) runs the whole VMM on
    one sequential engine. With [--sim-jobs N >= 2] the host is
    partitioned socket-aligned into [N] shards, each shard a
    full sub-host — its own engine, machine, VMM, scheduler, Dom0 and
    guest kernels — built by {!Scenario.build} over a sub-topology,
    and the shards advance together on the conservative windowed
    {!Sim_engine.Fabric}. Scheduling inside a shard needs no change: a
    shard's runqueues, timers and credit state are private by
    construction. Every cross-shard interaction is a mailbox message
    that respects the fabric lookahead (one scheduler slot):

    - [Load] — each shard broadcasts its runnable-domain count on a
      periodic balance tick (period [4 * lookahead]).
    - [Steal_req] — an idle shard asks the busiest remote (load >= 2)
      for work; at most one outstanding request per thief.
    - [Grant] — the victim parks a quiescent, scheduler-approved
      domain ({!Sim_guest.Kernel.park}, {!Sim_vmm.Vmm.detach_domain})
      and ships it; the domain's VCRD state, credits and online
      accounting travel with it. The one-window transit time is the
      modeled stop-and-copy cost. Arrival doubles as the ack: the
      thief re-points the kernel ({!Sim_guest.Kernel.retarget}),
      attaches the domain and measures the steal latency.
    - [Nack] — no migratable candidate; the thief may retry on a
      later tick.

    Every decision reads only shard-local state plus delivered mail,
    so outcomes are deterministic and worker-count invariant: the
    fabric digest for a given scenario is byte-identical at any
    [-j]. *)

type t

val build :
  Config.t -> sched:Config.sched_kind -> vms:Scenario.vm_spec list -> t
(** Build [config.sim_jobs] sub-hosts and wire the fabric and the
    balancers. VMs are dealt round-robin to shards in list order.
    Raises [Invalid_argument] if [sim_jobs < 2], if the topology's
    socket count is not divisible by [sim_jobs] (shards must be
    socket-aligned), if there are fewer VMs than shards, or if the
    config carries a fault profile (fault injection targets one
    machine; decoupled runs are clean by contract — which is also
    what makes the gang scheduler's IPI-horizon migration gate
    exact). *)

val shards : t -> int

val scenario : t -> int -> Scenario.t
(** The sub-host behind shard [i] (engine, machine, VMM, VMs). *)

val fabric : t -> Sim_engine.Fabric.t

val lookahead : t -> int
(** Cross-shard latency floor: one scheduler slot, in cycles. *)

(** {2 Running} *)

type vm_report = {
  r_vm : string;
  r_rounds : int;  (** completed whole-VM rounds *)
  r_marks : int;
  r_migrations : int;  (** times this VM was stolen across shards *)
  r_final_shard : int;
}

type report = {
  rp_shards : int;
  rp_workers : int;  (** worker domains actually used *)
  rp_wall_sec : float;
  rp_sim_sec : float;  (** max member clock at exit, in seconds *)
  rp_events : int;  (** events fired, summed over members *)
  rp_windows : int;
  rp_cross_posts : int;
  rp_max_window_mail : int;
  rp_steal_reqs : int;
  rp_grants : int;  (** completed migrations *)
  rp_nacks : int;
  rp_mean_steal_latency_cycles : float;
      (** mean request-to-arrival latency over completed steals *)
  rp_vms : vm_report list;
  rp_digest : int;  (** {!Sim_engine.Fabric.digest} at exit *)
  rp_fingerprint : string;
}

val run : ?workers:int -> t -> rounds:int -> max_sec:float -> report
(** Drive the fabric until every workload VM completes [rounds]
    rounds (checked between windows via per-VM done flags) or the
    simulated horizon [max_sec] passes. [workers] defaults to the
    recommended domain count, clamped to the shard count. A [t] is
    single-shot: run it once. *)

val report_kv : report -> (string * string) list
(** Flat key/value view of a report for printing and benchmarks
    (per-VM rows are prefixed [vm.<name>.]). *)

val report_metrics : report -> (string * float) list
(** Numeric view of the same keys for run-registry snapshots. *)
