type vm_spec = {
  vm_name : string;
  weight : int;
  vcpus : int;
  workload : Sim_workloads.Workload.t option;
}

let vm ?(weight = 256) ?(vcpus = 4) ~name workload =
  { vm_name = name; weight; vcpus; workload = Some workload }

type vm_instance = {
  spec : vm_spec;
  domain : Sim_vmm.Domain.t;
  kernel : Sim_guest.Kernel.t option;
  threads : Sim_guest.Thread.t list;
}

type t = {
  config : Config.t;
  engine : Sim_engine.Engine.t;
  machine : Sim_hw.Machine.t;
  vmm : Sim_vmm.Vmm.t;
  dom0 : Sim_vmm.Domain.t;
  vms : vm_instance list;
  injector : Sim_faults.Injector.t option;
}

let build ?(domain_id_base = 0) ?(vcpu_id_base = 0) ?(launch = true) config
    ~sched ~vms =
  if vms = [] then invalid_arg "Scenario.build: no VMs";
  List.iter
    (fun spec ->
      if spec.weight <= 0 then invalid_arg "Scenario.build: non-positive weight";
      if spec.vcpus <= 0 then invalid_arg "Scenario.build: non-positive vcpus")
    vms;
  let engine =
    Sim_engine.Engine.create ~seed:config.Config.seed
      ~queue:config.Config.engine_queue ()
  in
  (* Arm tracing before the machine exists so boot-time events (tick
     programming, first switches) land in the ring too. *)
  if config.Config.obs.Config.trace_mask <> 0 then
    Sim_obs.Trace.enable
      ~cap:config.Config.obs.Config.trace_cap
      (Sim_engine.Engine.trace engine)
      ~mask:config.Config.obs.Config.trace_mask;
  let machine =
    Sim_hw.Machine.create ~stagger:config.Config.stagger engine
      config.Config.cpu config.Config.topology
  in
  let watchdog =
    if Config.watchdog_enabled config then
      Some (Sim_vmm.Watchdog.default config.Config.cpu)
    else None
  in
  let numa =
    if config.Config.numa then
      Some
        {
          Sim_vmm.Sched_intf.topo = config.Config.topology;
          (* ~25 us of cold-cache refill at the modeled frequency. *)
          reloc_penalty_cycles =
            Sim_engine.Units.cycles_of_us (Config.freq config) 25;
        }
    else None
  in
  let vmm =
    Sim_vmm.Vmm.create ~domain_id_base ~vcpu_id_base
      ~work_conserving:config.Config.work_conserving
      ~accounting:config.Config.accounting ?watchdog ?numa machine
      ~sched:(Config.sched_maker sched)
  in
  Sim_vmm.Vmm.set_invariant_mode vmm config.Config.invariants;
  let injector =
    if Sim_faults.Fault.is_none config.Config.faults then None
    else
      Some
        (Sim_faults.Injector.install ~profile:config.Config.faults
           ~seed:(Int64.to_int config.Config.seed)
           machine vmm)
  in
  (* Dom0 first, as in Xen: one VCPU per PCPU, weight 256, idle. *)
  let dom0 =
    Sim_vmm.Vmm.create_domain vmm ~name:"Domain-0" ~weight:256
      ~vcpus:(Config.pcpus config) ()
  in
  let guest_params = Config.guest_params config in
  let registry = Sim_vmm.Vmm.metrics vmm in
  (* A clean run still reports the faults subsystem (as zeros) so a
     snapshot always distinguishes "no faults occurred" from "faults
     were not measured"; the injector re-registers these over live
     tallies when a profile is active. *)
  if injector = None then
    List.iter
      (fun n -> Sim_obs.Metrics.gauge registry ~subsystem:"faults" ~name:n (fun () -> 0))
      [
        "vcrd_reports_dropped"; "vcrd_reports_corrupted"; "pcpu_stalls";
        "pcpu_offlines";
      ];
  (* Per-VM guest/domain gauges: closures over the live kernel and
     monitor state, evaluated only at snapshot time. *)
  let register_vm_gauges ~name ~domain ~kernel =
    Sim_obs.Metrics.gauge registry ~subsystem:"vmm" ~vm:name
      ~name:"vcrd_transitions" (fun () ->
        domain.Sim_vmm.Domain.vcrd_transitions);
    match kernel with
    | None -> ()
    | Some k ->
      let m = Sim_guest.Kernel.monitor k in
      Sim_obs.Metrics.gauge registry ~subsystem:"guest" ~vm:name ~name:"marks"
        (fun () -> Sim_guest.Kernel.total_marks k);
      Sim_obs.Metrics.gauge registry ~subsystem:"guest" ~vm:name
        ~name:"total_spin_cycles" (fun () ->
          Sim_guest.Kernel.total_spin_cycles k);
      Sim_obs.Metrics.gauge registry ~subsystem:"guest" ~vm:name
        ~name:"over_threshold" (fun () ->
          Sim_guest.Monitor.over_threshold_count m);
      Sim_obs.Metrics.gauge registry ~subsystem:"guest" ~vm:name
        ~name:"adjusting_events" (fun () ->
          Sim_guest.Monitor.adjusting_events m)
  in
  let instances =
    List.map
      (fun spec ->
        let concurrent_type =
          match spec.workload with
          | Some w -> w.Sim_workloads.Workload.kind = Sim_workloads.Workload.Concurrent
          | None -> false
        in
        let domain =
          Sim_vmm.Vmm.create_domain vmm ~concurrent_type ~name:spec.vm_name
            ~weight:spec.weight ~vcpus:spec.vcpus ()
        in
        match spec.workload with
        | None ->
          register_vm_gauges ~name:spec.vm_name ~domain ~kernel:None;
          { spec; domain; kernel = None; threads = [] }
        | Some workload ->
          let kernel =
            Sim_guest.Kernel.create ~params:guest_params vmm domain ()
          in
          let threads = Sim_workloads.Workload.install workload kernel in
          register_vm_gauges ~name:spec.vm_name ~domain ~kernel:(Some kernel);
          { spec; domain; kernel = Some kernel; threads })
      vms
  in
  if config.Config.obs.Config.metrics then
    Obs_hub.register
      {
        Obs_hub.label =
          Printf.sprintf "%s/%s/seed%Ld" (Config.sched_name sched)
            (String.concat "+"
               (List.map
                  (fun s ->
                    String.concat ""
                      [
                        s.vm_name; "(";
                        (match s.workload with
                        | Some w -> w.Sim_workloads.Workload.name
                        | None -> "idle");
                        ",w"; string_of_int s.weight; ")";
                      ])
                  vms))
            config.Config.seed;
        freq_khz = Sim_engine.Units.freq_to_khz (Config.freq config);
        pcpus = Config.pcpus config;
        vm_names =
          (dom0.Sim_vmm.Domain.id, "Domain-0")
          :: List.map
               (fun (i : vm_instance) ->
                 (i.domain.Sim_vmm.Domain.id, i.spec.vm_name))
               instances;
        trace = Sim_engine.Engine.trace engine;
        metrics = Sim_vmm.Vmm.metrics vmm;
      };
  Sim_vmm.Vmm.start vmm;
  if launch then
    List.iter
      (fun inst ->
        match inst.kernel with
        | Some k -> Sim_guest.Kernel.launch k
        | None -> ())
      instances;
  { config; engine; machine; vmm; dom0; vms = instances; injector }

let expected_online_rate t inst =
  Sim_vmm.Domain.expected_online_rate inst.domain
    ~all:(Sim_vmm.Vmm.domains t.vmm)
    ~pcpus:(Config.pcpus t.config)

let find_vm t name =
  match List.find_opt (fun i -> i.spec.vm_name = name) t.vms with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Scenario.find_vm: no VM %s" name)

(* ----- declarative workload descriptors -----

   A [workload_desc] is a plain-data description of a VM's workload:
   everything the CLI and the SimCheck fuzzer need to rebuild the
   exact same [Sim_workloads.Workload.t] from a serialized case file.
   Durations are microseconds so descriptors stay integer-valued and
   CPU-model independent. *)

type workload_desc =
  | W_nas of string
  | W_speccpu of string
  | W_jbb of { warehouses : int }
  | W_compute of { threads : int; chunks : int; chunk_us : int }
  | W_lock_storm of { threads : int; rounds : int; cs_us : int; think_us : int }
  | W_barrier of { threads : int; rounds : int; compute_us : int; cv : float }
  | W_ping_pong of { rounds : int; compute_us : int }
  | W_random of { threads : int; ops : int; nlocks : int; prog_seed : int }
  | W_attack_dodge of { threads : int }
  | W_attack_steal of { threads : int }
  | W_attack_launder of { threads : int; phased : bool }

let workload_of_desc config desc =
  let freq = Config.freq config in
  let us n = Sim_engine.Units.cycles_of_us freq n in
  let slot_cycles = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
  match desc with
  | W_nas name -> (
    match Sim_workloads.Nas.of_name name with
    | Some b ->
      Sim_workloads.Nas.workload
        (Sim_workloads.Nas.params b ~freq ~scale:config.Config.scale)
    | None ->
      invalid_arg (Printf.sprintf "workload_of_desc: unknown NAS bench %S" name))
  | W_speccpu name -> (
    let bench =
      match String.lowercase_ascii name with
      | "gcc" -> Some Sim_workloads.Speccpu.Gcc
      | "bzip2" -> Some Sim_workloads.Speccpu.Bzip2
      | _ -> None
    in
    match bench with
    | Some b ->
      Sim_workloads.Speccpu.workload
        (Sim_workloads.Speccpu.params b ~freq ~scale:config.Config.scale)
    | None ->
      invalid_arg
        (Printf.sprintf "workload_of_desc: unknown SPEC CPU bench %S" name))
  | W_jbb { warehouses } ->
    Sim_workloads.Specjbb.workload
      (Sim_workloads.Specjbb.default_params ~freq ~warehouses)
  | W_compute { threads; chunks; chunk_us } ->
    Sim_workloads.Synthetic.compute_only ~threads ~chunks
      ~chunk_cycles:(us chunk_us) ()
  | W_lock_storm { threads; rounds; cs_us; think_us } ->
    Sim_workloads.Synthetic.lock_storm ~threads ~rounds ~cs_cycles:(us cs_us)
      ~think_cycles:(us think_us) ()
  | W_barrier { threads; rounds; compute_us; cv } ->
    Sim_workloads.Synthetic.barrier_loop ~threads ~rounds
      ~compute_cycles:(us compute_us) ~cv ()
  | W_ping_pong { rounds; compute_us } ->
    Sim_workloads.Synthetic.ping_pong ~rounds ~compute_cycles:(us compute_us)
  | W_random { threads; ops; nlocks; prog_seed } ->
    let rng = Sim_engine.Rng.create (Int64.of_int prog_seed) in
    let programs =
      List.init threads (fun _ ->
          Sim_workloads.Synthetic.random_program rng ~ops ~nlocks
            ~max_compute:(us 500))
    in
    {
      Sim_workloads.Workload.name = "random";
      kind = Sim_workloads.Workload.Concurrent;
      threads =
        List.mapi
          (fun i program ->
            { Sim_workloads.Workload.affinity = i; program; restart = false })
          programs;
      barriers = [];
      semaphores = [];
    }
  | W_attack_dodge { threads } ->
    Sim_workloads.Attack.tick_dodge ~threads ~slot_cycles ()
  | W_attack_steal { threads } ->
    Sim_workloads.Attack.cycle_steal ~threads ~slot_cycles ()
  | W_attack_launder { threads; phased } ->
    Sim_workloads.Attack.launder_half ~threads ~slot_cycles ~phased ()

let numbered_vms config ~weight descs =
  List.mapi
    (fun i desc ->
      let workload = workload_of_desc config desc in
      vm ~weight
        ~name:
          (Printf.sprintf "V%d:%s" (i + 1) workload.Sim_workloads.Workload.name)
        workload)
    descs

type vm_desc = {
  vd_name : string;
  vd_weight : int;
  vd_vcpus : int;
  vd_workload : workload_desc option;
}

let vm_of_desc config d =
  {
    vm_name = d.vd_name;
    weight = d.vd_weight;
    vcpus = d.vd_vcpus;
    workload = Option.map (workload_of_desc config) d.vd_workload;
  }

let of_descs config ~sched descs =
  build config ~sched ~vms:(List.map (vm_of_desc config) descs)
