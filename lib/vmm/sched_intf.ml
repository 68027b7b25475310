(* NUMA-ish host model for big (64-256 PCPU) topologies: schedulers
   prefer same-socket steals, and a VCPU relocated across sockets pays
   a one-off cold-cache penalty (charged as extra consumed cycles at
   its next accounting). [None] — the default — keeps every scheduler
   byte-identical to the flat-host behaviour. *)
type numa = {
  topo : Sim_hw.Topology.t;
  reloc_penalty_cycles : int;
}

type api = {
  machine : Sim_hw.Machine.t;
  runqueues : Runqueue.t array;
  domains : unit -> Domain.t list;
  work_conserving : bool;
  now : unit -> int;
  current : int -> Vcpu.t option;
  run_on : pcpu:int -> Vcpu.t -> unit;
  make_idle : pcpu:int -> unit;
  migrate : Vcpu.t -> dst:int -> unit;
  domain_online : Domain.t -> int;
  pcpu_online : int -> bool;
  watchdog : Watchdog.params option;
  metrics : Sim_obs.Metrics.t;
  numa : numa option;
}

type t = {
  name : string;
  on_slot : pcpu:int -> unit;
  on_period : unit -> unit;
  on_wake : Vcpu.t -> unit;
  on_block : Vcpu.t -> unit;
  on_vcrd_change : Domain.t -> unit;
  on_ple : Vcpu.t -> unit;
  migratable : Domain.t -> bool;
  counters : unit -> (string * int) list;
}

type maker = api -> t
