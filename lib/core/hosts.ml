open Sim_engine

(* Member k's VMM numbers domains from [k * domain_stride] and VCPUs
   from [k * vcpu_stride]: far above any realistic population. *)
let domain_stride = 4096
let vcpu_stride = 65536

let mix_seed seed k =
  Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int (k + 1))

type member = {
  topology : Sim_hw.Topology.t;
  vms : Scenario.vm_spec list;
  launch : bool;
}

type vm = {
  id : int;
  name : string;
  kernel : Sim_guest.Kernel.t;
  domain : Sim_vmm.Domain.t;
  mutable member : int;
}

(* [residents.(k)] is member k's physical truth: written only by
   member k's own events (attach/detach). *)
type t = {
  scenarios : Scenario.t array;
  fabric : Fabric.t;
  lookahead : int;
  residents : vm list array;
  mutable adopted : int;
}

let create config ~sched members =
  if not (Sim_faults.Fault.is_none config.Config.faults) then
    invalid_arg "Hosts.create: fault injection targets one machine";
  let scenarios =
    Array.mapi
      (fun k m ->
        let sub_config =
          {
            config with
            Config.topology = m.topology;
            seed = mix_seed config.Config.seed k;
            sim_jobs = 1;
            obs =
              { config.Config.obs with Config.trace_mask = 0; metrics = false };
          }
        in
        Scenario.build
          ~domain_id_base:(k * domain_stride)
          ~vcpu_id_base:(k * vcpu_stride) ~launch:m.launch sub_config ~sched
          ~vms:m.vms)
      members
  in
  let lookahead = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
  {
    scenarios;
    fabric =
      Fabric.create ~lookahead
        (Array.map (fun s -> s.Scenario.engine) scenarios);
    lookahead;
    residents = Array.make (Array.length members) [];
    adopted = 0;
  }

let scenario t k = t.scenarios.(k)
let engine t k = t.scenarios.(k).Scenario.engine
let now t k = Engine.now (engine t k)
let fabric t = t.fabric
let lookahead t = t.lookahead

let send ?(extra = 0) t ~src ~dst action =
  Fabric.post t.fabric ~src ~dst ~time:(now t src + t.lookahead + extra)
    action

let adopt t ~member (inst : Scenario.vm_instance) =
  let name = inst.Scenario.spec.Scenario.vm_name in
  let kernel =
    match inst.Scenario.kernel with
    | Some k -> k
    | None -> invalid_arg ("Hosts.adopt: idle VM " ^ name)
  in
  let vm = { id = t.adopted; name; kernel; domain = inst.Scenario.domain; member } in
  t.adopted <- t.adopted + 1;
  t.residents.(member) <- vm :: t.residents.(member);
  vm

let residents t k = t.residents.(k)

let poll_bound = 64

(* The one quiescence poll, on the VM's member: check now, then every
   lookahead, until the kernel owns no pending event and the scheduler
   holds no state for the domain; [give_up] after [bound] re-polls. *)
let rec poll t vm ~tries ~bound ~ready ~give_up =
  if
    Sim_guest.Kernel.quiescent vm.kernel
    && Sim_vmm.Vmm.sched_migratable (scenario t vm.member).Scenario.vmm
         vm.domain
  then ready ()
  else if tries >= bound then give_up ()
  else
    let (_ : Engine.handle) =
      Engine.schedule_after (engine t vm.member) ~delay:t.lookahead (fun () ->
          poll t vm ~tries:(tries + 1) ~bound ~ready ~give_up)
    in
    ()

(* Source half: a source-engine queue mutation (the monitor's window
   event) and a source-VMM mutation. The domain then exists only in
   the closure that carries it until the destination attaches it. *)
let detach t vm =
  let k = vm.member in
  Sim_guest.Kernel.park vm.kernel;
  Sim_vmm.Vmm.detach_domain (scenario t k).Scenario.vmm vm.domain;
  t.residents.(k) <- List.filter (fun x -> x != vm) t.residents.(k)

(* Destination half, one window or more later on the destination's
   engine. A never-launched guest (a cluster placement) has nothing
   paused, so the thaw only clears the freeze before the launch. *)
let attach t vm k =
  let vmm = (scenario t k).Scenario.vmm in
  Sim_guest.Kernel.retarget vm.kernel ~vmm;
  Sim_vmm.Vmm.attach_domain vmm vm.domain;
  t.residents.(k) <- vm :: t.residents.(k);
  vm.member <- k;
  Sim_guest.Kernel.thaw vm.kernel;
  if not (Sim_guest.Kernel.launched vm.kernel) then
    Sim_guest.Kernel.launch vm.kernel

let migrate ?(extra = 0) ?(shipped = fun ~downtime:_ -> ()) t vm ~dst ~nacked
    ~arrived =
  let src = vm.member in
  let frozen_at = now t src in
  Sim_guest.Kernel.request_freeze vm.kernel;
  poll t vm ~tries:0 ~bound:poll_bound
    ~ready:(fun () ->
      let waited = now t src - frozen_at in
      detach t vm;
      send ~extra t ~src ~dst (fun () ->
          attach t vm dst;
          arrived ());
      shipped ~downtime:(waited + t.lookahead + extra))
    ~give_up:(fun () ->
      Sim_guest.Kernel.thaw vm.kernel;
      nacked ())

let depart t vm ~gone =
  Sim_guest.Kernel.request_halt vm.kernel;
  let (_ : Engine.handle) =
    Engine.schedule_after (engine t vm.member) ~delay:t.lookahead (fun () ->
        poll t vm ~tries:0 ~bound:max_int
          ~ready:(fun () ->
            detach t vm;
            gone ())
          ~give_up:ignore)
  in
  ()

type run = { wall_sec : float; sim_end : int; workers : int }

let run ?workers ?until ?stop t =
  let wall0 = Unix.gettimeofday () in
  Fabric.run ?workers ?until ?stop t.fabric;
  let wall_sec = Unix.gettimeofday () -. wall0 in
  let clock acc s = max acc (Engine.now s.Scenario.engine) in
  {
    wall_sec;
    sim_end = Array.fold_left clock 0 t.scenarios;
    workers = Fabric.workers ?workers t.fabric;
  }
