(** Interface between the VMM core and pluggable schedulers.

    The VMM core owns the run queues, the current-VCPU assignment and
    the credit burning; a scheduler is a bundle of event handlers that
    reacts to slot boundaries, assignment periods, wake/block and VCRD
    changes by invoking the actions in {!api}. *)

type numa = {
  topo : Sim_hw.Topology.t;
  reloc_penalty_cycles : int;
      (** cold-cache cost charged to a VCPU relocated across sockets,
          consumed at its next accounting event *)
}
(** NUMA-ish host model for big (64-256 PCPU) topologies: schedulers
    prefer same-socket steals, and cross-socket relocations pay a
    one-off penalty. [None] in {!api} — the default — keeps every
    scheduler byte-identical to the flat-host behaviour. *)

type api = {
  machine : Sim_hw.Machine.t;
  runqueues : Runqueue.t array;
      (** index = PCPU id; built by {!Runqueue.create_set}, so the
          queues share one occupancy bitmap *)
  domains : unit -> Domain.t list;  (** creation order *)
  work_conserving : bool;
      (** [false]: a VM's CPU time is strictly capped by its weight
          (Xen's non work-conserving mode, used in §5.2);
          [true]: VMs may consume slack (used in §5.3) *)
  now : unit -> int;
  current : int -> Vcpu.t option;  (** VCPU online on a PCPU *)
  run_on : pcpu:int -> Vcpu.t -> unit;
      (** Context-switch a PCPU to a [Ready] VCPU (the previous
          occupant is preempted and re-queued on that PCPU). A no-op
          if it is already running there. *)
  make_idle : pcpu:int -> unit;
      (** Preempt and re-queue the occupant, leaving the PCPU idle. *)
  migrate : Vcpu.t -> dst:int -> unit;
      (** Move a [Ready] VCPU to another PCPU's run queue. *)
  domain_online : Domain.t -> int;
      (** Cumulative guest online cycles (for VMM-side window
          metering, e.g. out-of-VM VCRD detection). *)
  pcpu_online : int -> bool;
      (** Whether the PCPU is online (hotplug fault injection);
          schedulers must not dispatch onto offline PCPUs. *)
  watchdog : Watchdog.params option;
      (** When set, the gang scheduler tracks coscheduling launches
          and demotes stalling domains to plain Credit. [None] (the
          default) leaves behavior identical to a watchdog-free
          build. *)
  metrics : Sim_obs.Metrics.t;
      (** The simulation's metrics registry, for scheduler-owned
          counters (e.g. the gang watchdog's tallies). *)
  numa : numa option;
      (** When set, {!Sched_common.steal} prefers same-socket
          runqueues and the core charges relocation penalties. *)
}

type t = {
  name : string;
  on_slot : pcpu:int -> unit;
      (** Slot-boundary scheduling event on a PCPU. The core has
          already charged credit; the handler must leave the PCPU
          either running some VCPU or idle. *)
  on_period : unit -> unit;  (** Credit assignment event (Algorithm 3). *)
  on_wake : Vcpu.t -> unit;
      (** A blocked VCPU became runnable; the core already marked it
          [Ready] (not queued). The handler must queue it (and may
          dispatch it immediately onto an idle PCPU). *)
  on_block : Vcpu.t -> unit;
      (** The VCPU running on some PCPU blocked; the core already
          removed it. The handler should fill the hole. *)
  on_vcrd_change : Domain.t -> unit;
      (** The guest changed the domain's VCRD via hypercall. *)
  on_ple : Vcpu.t -> unit;
      (** Hardware pause-loop-exit: the VCPU has been busy-spinning a
          full PLE window. The basis for out-of-VM VCRD detection (the
          paper's stated future work); ignored by the other
          schedulers. *)
  migratable : Domain.t -> bool;
      (** Whether the scheduler holds no pending state (armed windows,
          in-flight coscheduling IPIs, watchdog audits) that would
          dangle if the domain were detached from this host right
          now. Per-VCPU flags like gang boosts travel with the domain
          and don't block. Part of the decoupled-VMM quiescence gate;
          always [true] for stateless schedulers. *)
  counters : unit -> (string * int) list;
      (** Scheduler-specific health counters (e.g. the gang watchdog's
          launch/timeout/demotion tallies); [[]] when none. *)
}

type maker = api -> t
(** Scheduler constructor, passed to [Vmm.create]. *)
