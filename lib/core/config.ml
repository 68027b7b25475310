type sched_kind =
  | Credit
  | Asman
  | Cosched_static
  | Asman_oov
  | Custom of string * Sim_vmm.Sched_intf.maker

let sched_name = function
  | Credit -> "credit"
  | Asman -> "asman"
  | Cosched_static -> "con"
  | Asman_oov -> "asman-oov"
  | Custom (name, _) -> name

let sched_of_name s =
  match String.lowercase_ascii s with
  | "credit" -> Some Credit
  | "asman" -> Some Asman
  | "con" | "cosched" | "static" -> Some Cosched_static
  | "asman-oov" | "oov" -> Some Asman_oov
  | _ -> None

let sched_maker = function
  | Credit -> Sim_vmm.Sched_credit.make
  | Asman -> Sim_vmm.Sched_gang.make_asman
  | Cosched_static -> Sim_vmm.Sched_gang.make_static
  | Asman_oov -> Sim_vmm.Sched_gang.make_oov
  | Custom (_, maker) -> maker

type obs = {
  trace_mask : int;
  trace_cap : int;
  metrics : bool;
  profile : Sim_obs.Prof.t option;
}

let obs_off =
  {
    trace_mask = 0;
    trace_cap = Sim_obs.Trace.default_cap;
    metrics = false;
    profile = None;
  }

type t = {
  seed : int64;
  cpu : Sim_hw.Cpu_model.t;
  topology : Sim_hw.Topology.t;
  stagger : bool;
  work_conserving : bool;
  guest_params : Sim_guest.Kernel.params option;
  scale : float;
  faults : Sim_faults.Fault.profile;
  invariants : Sim_vmm.Vmm.invariant_mode;
  engine_queue : Sim_engine.Engine.queue_kind;
  sim_jobs : int;
  decouple : bool;
  numa : bool;
  accounting : Sim_vmm.Vmm.accounting;
  obs : obs;
}

let default =
  {
    seed = 42L;
    cpu = Sim_hw.Cpu_model.default;
    topology = Sim_hw.Topology.default;
    stagger = true;
    work_conserving = true;
    guest_params = None;
    scale = 0.25;
    faults = Sim_faults.Fault.none;
    invariants = Sim_vmm.Vmm.Record;
    engine_queue = Sim_engine.Engine.Wheel_queue;
    sim_jobs = 1;
    decouple = false;
    numa = false;
    accounting = Sim_vmm.Vmm.Precise;
    obs = obs_off;
  }

let with_scale t scale = { t with scale }
let with_seed t seed = { t with seed }
let with_work_conserving t work_conserving = { t with work_conserving }
let with_faults t faults = { t with faults }

let watchdog_enabled t = not (Sim_faults.Fault.is_none t.faults)

let guest_params t =
  match t.guest_params with
  | Some p -> p
  | None -> Sim_guest.Kernel.default_params t.cpu

let freq t = t.cpu.Sim_hw.Cpu_model.freq

let pcpus t = Sim_hw.Topology.pcpu_count t.topology
