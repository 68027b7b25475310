(** Scenario builder: instantiate the full stack for one experiment.

    A scenario is the administrator VM (Dom0: one VCPU per PCPU,
    weight 256, no workload — as in §5.2) plus a list of guest VMs,
    each with a weight, a VCPU count and an optional workload. The
    builder wires engine, machine, VMM, scheduler, guest kernels and
    workloads, starts the VMM and launches the guests; the caller then
    advances the engine (see {!Runner}). *)

type vm_spec = {
  vm_name : string;
  weight : int;
  vcpus : int;
  workload : Sim_workloads.Workload.t option;
}

val vm :
  ?weight:int ->
  ?vcpus:int ->
  name:string ->
  Sim_workloads.Workload.t ->
  vm_spec
(** Convenience constructor: weight 256, 4 VCPUs. *)

type vm_instance = {
  spec : vm_spec;
  domain : Sim_vmm.Domain.t;
  kernel : Sim_guest.Kernel.t option;  (** [None] for idle VMs *)
  threads : Sim_guest.Thread.t list;
}

type t = {
  config : Config.t;
  engine : Sim_engine.Engine.t;
  machine : Sim_hw.Machine.t;
  vmm : Sim_vmm.Vmm.t;
  dom0 : Sim_vmm.Domain.t;
  vms : vm_instance list;  (** in [vm_spec] order; excludes Dom0 *)
  injector : Sim_faults.Injector.t option;
      (** present when [config.faults] is a real profile *)
}

val build :
  ?domain_id_base:int ->
  ?vcpu_id_base:int ->
  ?launch:bool ->
  Config.t ->
  sched:Config.sched_kind ->
  vms:vm_spec list ->
  t
(** Raises [Invalid_argument] on an empty or ill-formed VM list.
    [domain_id_base]/[vcpu_id_base] offset the VMM's id counters so
    that ids stay globally unique across the sub-hosts of a decoupled
    ({!Decouple}) run. [launch] (default [true]) controls whether the
    guest kernels are launched; the cluster layer builds its incubator
    host with [~launch:false] so trace VMs stay quiescent until they
    are placed, then calls {!Sim_guest.Kernel.launch} on arrival.
    VMs whose workload is {!Sim_workloads.Workload.Concurrent} are
    marked [concurrent_type] (the static CON classification an
    administrator would apply).

    Observability: per-VM guest gauges always join the VMM's metrics
    registry (snapshot-time closures, no run-time cost); when
    [config.obs] asks for tracing the engine trace is armed before
    the machine boots, and when [config.obs.metrics] is on the
    scenario publishes its trace + registry in {!Obs_hub} for
    export. *)

val expected_online_rate : t -> vm_instance -> float
(** Equation (2) for the instance's domain. *)

val find_vm : t -> string -> vm_instance

(** {2 Declarative scenario descriptors}

    Plain-data workload descriptions, rebuildable from a serialized
    case file (the SimCheck fuzzer and the CLI share them). Durations
    are in microseconds so descriptors stay integer-valued and
    CPU-model independent. *)

type workload_desc =
  | W_nas of string  (** NAS benchmark by name ("LU", "CG", ...) *)
  | W_speccpu of string  (** "gcc" or "bzip2" (restarting rate protocol) *)
  | W_jbb of { warehouses : int }
  | W_compute of { threads : int; chunks : int; chunk_us : int }
  | W_lock_storm of { threads : int; rounds : int; cs_us : int; think_us : int }
  | W_barrier of { threads : int; rounds : int; compute_us : int; cv : float }
  | W_ping_pong of { rounds : int; compute_us : int }  (** semaphores *)
  | W_random of { threads : int; ops : int; nlocks : int; prog_seed : int }
      (** independent random programs from {!Sim_workloads.Synthetic.random_program} *)
  | W_attack_dodge of { threads : int }
      (** {!Sim_workloads.Attack.tick_dodge}: sleep across the
          accounting tick *)
  | W_attack_steal of { threads : int }
      (** {!Sim_workloads.Attack.cycle_steal}: sub-tick bursts *)
  | W_attack_launder of { threads : int; phased : bool }
      (** one half of a {!Sim_workloads.Attack.launder_half} pair;
          put the [phased] half in a second colocated VM *)

val workload_of_desc : Config.t -> workload_desc -> Sim_workloads.Workload.t
(** Deterministic in (config, desc). Raises [Invalid_argument] on an
    unknown benchmark name. *)

val numbered_vms : Config.t -> weight:int -> workload_desc list -> vm_spec list
(** One 4-VCPU VM of [weight] per descriptor, named [V<i>:<workload
    name>] from [V1] on: the guests of [asman_cli run] and of Figs
    11–12. *)

type vm_desc = {
  vd_name : string;
  vd_weight : int;
  vd_vcpus : int;
  vd_workload : workload_desc option;
}

val vm_of_desc : Config.t -> vm_desc -> vm_spec
(** The descriptor's VM, its workload built by {!workload_of_desc}. *)

val of_descs : Config.t -> sched:Config.sched_kind -> vm_desc list -> t
(** {!build} over descriptor-built workloads. *)
