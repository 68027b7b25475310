(** The multi-host substrate: N complete {!Scenario} stacks on one
    conservative {!Sim_engine.Fabric}, and the one way a guest moves
    between them. {!Decouple} (steals between socket-aligned shards)
    and [Sim_cluster.Cluster] (datacenter placement) are policies on
    top; DESIGN.md describes the migrate state machine.

    Members are built dark: no trace is armed and nothing is
    published in {!Obs_hub} ([trace_mask = 0], [metrics = false]), so
    a multi-host run exports no per-member fragments. They get
    decorrelated seeds and id-counter bases that keep domain and VCPU
    ids globally unique. The lookahead is one scheduler slot. Member
    state, the attached-VM lists included, changes only from that
    member's own events, so runs are worker-count invariant as long as
    policies cross members only through {!send}. *)

type t

type member = {
  topology : Sim_hw.Topology.t;
  vms : Scenario.vm_spec list;
  launch : bool;  (** launch the guest kernels at build time *)
}

val create : Config.t -> sched:Config.sched_kind -> member array -> t
(** Raises [Invalid_argument] if [config] carries a fault profile:
    fault injection targets one machine, so multi-host runs are clean
    by contract (which also keeps the gang scheduler's IPI-horizon
    migration gate exact). *)

val scenario : t -> int -> Scenario.t
val engine : t -> int -> Sim_engine.Engine.t
val now : t -> int -> int
val fabric : t -> Sim_engine.Fabric.t
val lookahead : t -> int

val send : ?extra:int -> t -> src:int -> dst:int -> (unit -> unit) -> unit
(** From an event of member [src], post an action to member [dst] at
    [now src + lookahead + extra] ([extra] defaults to 0). *)

(** A guest the substrate can move; [member] is where it was last
    attached. *)
type vm = private {
  id : int;  (** adoption order, from 0 *)
  name : string;
  kernel : Sim_guest.Kernel.t;
  domain : Sim_vmm.Domain.t;
  mutable member : int;
}

val adopt : t -> member:int -> Scenario.vm_instance -> vm
(** Register a VM of that member's scenario as attached there. Raises
    [Invalid_argument] for an idle VM (no guest kernel). *)

val residents : t -> int -> vm list
(** The adopted VMs attached to a member; one in transit is nowhere. *)

val poll_bound : int

val migrate :
  ?extra:int ->
  ?shipped:(downtime:int -> unit) ->
  t ->
  vm ->
  dst:int ->
  nacked:(unit -> unit) ->
  arrived:(unit -> unit) ->
  unit
(** From an event of the VM's member: request a freeze and poll, now
    and then every lookahead, until the guest is quiescent and its
    scheduler state migratable; then park, detach, and post it to
    arrive at [now + lookahead + extra], where it is retargeted,
    attached and thawed (or launched, if it never ran). [shipped] runs
    on the source after the detach, with the downtime (drain +
    lookahead + [extra]); [arrived] runs on [dst] after the thaw.
    After {!poll_bound} failed re-polls the guest is thawed in place
    and [nacked] runs on the source instead. *)

val depart : t -> vm -> gone:(unit -> unit) -> unit
(** Ask the guest to drain for good, poll as {!migrate} does (from one
    lookahead on, without bound), then park and detach it and run
    [gone] on its member. *)

type run = {
  wall_sec : float;
  sim_end : int;  (** the latest member clock at exit, in cycles *)
  workers : int;  (** worker domains {!Sim_engine.Fabric.run} used *)
}

val run : ?workers:int -> ?until:int -> ?stop:(unit -> bool) -> t -> run
