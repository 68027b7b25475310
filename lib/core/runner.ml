open Sim_engine
module Metrics = Sim_obs.Metrics

type vm_metrics = {
  vm_name : string;
  rounds : int;
  round_sec : float list;
  marks : int;
  online_rate : float;
  expected_online : float;
  attained_cycles : int;
  entitled_cycles : int;
  theft_cycles : int;
  spin_over_threshold : int;
  adjusting_events : int;
  vcrd_transitions : int;
  total_spin_sec : float;
  watchdog_demotions : int;
  invariant_violations : int;
}

type metrics = {
  vms : vm_metrics list;
  by_name : (string, vm_metrics) Hashtbl.t;
  sim_sec : float;
  events_fired : int;
  ipis : int;
  ctx_switches : int;
  invariant_violations : int;
  sched_counters : (string * int) list;
  fault_stats : (string * int) list;
}

let freq (s : Scenario.t) = Config.freq s.Scenario.config

(* One VM's round clock. VM round k completes when the slowest thread
   finishes its k-th pass, at the time of the VMM the kernel is
   attached to then: after a move between hosts, the destination's
   clock. Written only from the VM's own events; [online0] is the
   domain's online cycles when tracking began. *)
type rounds = {
  kernel : Sim_guest.Kernel.t;
  online0 : int;
  mutable times : int list;  (* newest first *)
}

(* The countdown is atomic because the kernels of a decoupled run
   complete their rounds on different worker domains. *)
let track_rounds ~target ~on_all_done kernels =
  let left = Atomic.make (List.length kernels) in
  List.map
    (fun k ->
      let online0 =
        Sim_vmm.Vmm.domain_online_cycles (Sim_guest.Kernel.vmm k)
          (Sim_guest.Kernel.domain k)
      in
      let r = { kernel = k; online0; times = [] } in
      Sim_guest.Kernel.set_round_hook k (fun _ ~round:_ ~duration:_ ->
          let completed = Sim_guest.Kernel.min_rounds k in
          let recorded = List.length r.times in
          if completed > recorded then begin
            let now = Sim_vmm.Vmm.now (Sim_guest.Kernel.vmm k) in
            for _ = recorded + 1 to completed do
              r.times <- now :: r.times
            done;
            if recorded < target && completed >= target
               && Atomic.fetch_and_add left (-1) = 1
            then on_all_done ()
          end);
      r)
    kernels

(* Everything countable flows through the VMMs' metrics registries: a
   window value is a snapshot diff, and cumulative-by-design
   quantities (over-threshold detections, adjusting events, VCRD
   transitions, spin time) read the absolute snapshot. A per-VM value
   is summed over the hosts: a guest gauge lives on the VM's birth
   host, a counter on each host that bumped it. *)
let vm_outcome ~freq ~absolute ~window ~started ?rounds ~vmm ~moved
    (domain : Sim_vmm.Domain.t) =
  let name = domain.Sim_vmm.Domain.name in
  let get snaps ~subsystem n =
    List.fold_left
      (fun acc s -> acc + Metrics.get s ~subsystem ~vm:name ~name:n ())
      0 snaps
  in
  let times = match rounds with Some r -> List.rev r.times | None -> [] in
  let rec durations prev = function
    | [] -> []
    | t :: rest -> Units.sec_of_cycles freq (t - prev) :: durations t rest
  in
  let attained, online_rate =
    match rounds with
    | Some r when moved ->
      let a = Sim_vmm.Vmm.domain_online_cycles vmm domain - r.online0 in
      let span = Sim_vmm.Vmm.now vmm - started in
      let vcpus = Sim_vmm.Domain.vcpu_count domain in
      (a, float_of_int a /. float_of_int (span * vcpus))
    | _ ->
      ( Sim_vmm.Vmm.attained_cycles vmm domain,
        Sim_vmm.Vmm.online_rate vmm domain )
  in
  let entitled = Sim_vmm.Domain.entitled_cycles domain in
  {
    vm_name = name;
    rounds = List.length times;
    round_sec = durations started times;
    marks = get window ~subsystem:"guest" "marks";
    online_rate;
    expected_online =
      Sim_vmm.Domain.expected_online_rate domain
        ~all:(Sim_vmm.Vmm.domains vmm)
        ~pcpus:(Sim_vmm.Vmm.pcpu_count vmm);
    attained_cycles = attained;
    entitled_cycles = entitled;
    theft_cycles = Int.max 0 (attained - entitled);
    spin_over_threshold = get absolute ~subsystem:"guest" "over_threshold";
    adjusting_events = get absolute ~subsystem:"guest" "adjusting_events";
    vcrd_transitions = get absolute ~subsystem:"vmm" "vcrd_transitions";
    total_spin_sec =
      Units.sec_of_cycles freq
        (get absolute ~subsystem:"guest" "total_spin_cycles");
    watchdog_demotions = get window ~subsystem:"watchdog" "demotions";
    invariant_violations = get window ~subsystem:"vmm" "invariant_violations";
  }

let collect (s : Scenario.t) ~rounds ~started ~base =
  let f = freq s in
  let now = Engine.now s.Scenario.engine in
  let snap = Metrics.snapshot (Sim_vmm.Vmm.metrics s.Scenario.vmm) in
  let d = Metrics.diff ~base snap in
  let vms =
    List.map
      (fun (inst : Scenario.vm_instance) ->
        let rounds =
          match inst.Scenario.kernel with
          | Some k -> List.find_opt (fun r -> r.kernel == k) rounds
          | None -> None
        in
        vm_outcome ~freq:f ~absolute:[ snap ] ~window:[ d ] ~started ?rounds
          ~vmm:s.Scenario.vmm ~moved:false inst.Scenario.domain)
      s.Scenario.vms
  in
  let by_name = Hashtbl.create (List.length vms) in
  List.iter (fun v -> Hashtbl.replace by_name v.vm_name v) vms;
  {
    vms;
    by_name;
    sim_sec = Units.sec_of_cycles f (now - started);
    events_fired = Metrics.get d ~subsystem:"engine" ~name:"events_fired" ();
    ipis = Metrics.get d ~subsystem:"hw" ~name:"ipis_sent" ();
    ctx_switches = Metrics.get d ~subsystem:"vmm" ~name:"ctx_switches" ();
    invariant_violations =
      Metrics.get d ~subsystem:"vmm" ~name:"invariant_violations" ();
    sched_counters = Sim_vmm.Vmm.sched_counters s.Scenario.vmm;
    fault_stats =
      (match s.Scenario.injector with
      | Some inj -> Sim_faults.Injector.stats inj
      | None -> []);
  }

let kernels (s : Scenario.t) =
  List.filter_map (fun i -> i.Scenario.kernel) s.Scenario.vms

(* Charge the run's phases to the configured self-profiler, when one
   is installed; a no-op wrapper otherwise. *)
let timed (s : Scenario.t) label f =
  match s.Scenario.config.Config.obs.Config.profile with
  | None -> f ()
  | Some p -> Sim_obs.Prof.time p label f

(* Oracle hook: fire [f s] every [every_sec] of simulated time while
   the run is in flight, then stop the chain so later windows on the
   same scenario are unaffected. Probes must observe only (SimCheck's
   mid-run invariant checks); a probe mutating scheduler state would
   perturb the run it is judging. *)
let with_probe (s : Scenario.t) probe run =
  match probe with
  | None -> run ()
  | Some (every_sec, f) ->
    let period = Units.cycles_of_sec_f (freq s) every_sec in
    if period <= 0 then invalid_arg "Runner: probe period must be positive";
    let stop =
      Engine.periodic s.Scenario.engine
        ~start:(Engine.now s.Scenario.engine + period)
        ~period
        (fun () -> f s)
    in
    Fun.protect ~finally:stop run

(* One measurement from now: [sec] simulated seconds, or until every
   workload VM completes [target] rounds. *)
let measure ?probe (s : Scenario.t) ~target ~sec =
  let engine = s.Scenario.engine in
  let started = Engine.now engine in
  let base = Metrics.snapshot (Sim_vmm.Vmm.metrics s.Scenario.vmm) in
  let rounds =
    track_rounds ~target (kernels s) ~on_all_done:(fun () -> Engine.halt engine)
  in
  let limit = started + Units.cycles_of_sec_f (freq s) sec in
  timed s "engine.run" (fun () ->
      with_probe s probe (fun () -> Engine.run ~until:limit engine));
  timed s "collect" (fun () -> collect s ~rounds ~started ~base)

let run_rounds ?probe s ~rounds ~max_sec =
  if rounds <= 0 then invalid_arg "Runner.run_rounds: rounds must be positive";
  measure ?probe s ~target:rounds ~sec:max_sec

let run_window ?probe s ~sec =
  if sec <= 0. then invalid_arg "Runner.run_window: sec must be positive";
  Sim_vmm.Vmm.reset_accounting s.Scenario.vmm;
  List.iter
    (fun k ->
      Sim_guest.Kernel.reset_marks k;
      Sim_guest.Monitor.reset_window (Sim_guest.Kernel.monitor k))
    (kernels s);
  measure ?probe s ~target:max_int ~sec

let vm_metrics m ~vm =
  match Hashtbl.find_opt m.by_name vm with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Runner.vm_metrics: no VM %s" vm)

let first_round_sec m ~vm =
  match (vm_metrics m ~vm).round_sec with
  | first :: _ -> first
  | [] -> failwith (Printf.sprintf "Runner: VM %s completed no round" vm)

let mean_round v =
  match v.round_sec with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let mean_round_sec m ~vm =
  let v = vm_metrics m ~vm in
  if v.round_sec = [] then
    failwith (Printf.sprintf "Runner: VM %s completed no round" vm);
  mean_round v

let monitor_of (s : Scenario.t) ~vm =
  let inst = Scenario.find_vm s vm in
  match inst.Scenario.kernel with
  | Some k -> Sim_guest.Kernel.monitor k
  | None -> invalid_arg (Printf.sprintf "Runner.monitor_of: VM %s is idle" vm)

let vm_kv vm =
  let k suffix = Printf.sprintf "vm.%s.%s" vm.vm_name suffix in
  [
    (k "rounds", float_of_int vm.rounds);
    (k "online_rate", vm.online_rate);
    (k "attained_cycles", float_of_int vm.attained_cycles);
    (k "entitled_cycles", float_of_int vm.entitled_cycles);
    (k "theft_cycles", float_of_int vm.theft_cycles);
  ]

(* Flat snapshot of a metrics record for run-registry records. *)
let metrics_kv (m : metrics) =
  let global =
    [
      ("sim_sec", m.sim_sec);
      ("events_fired", float_of_int m.events_fired);
      ("ipis", float_of_int m.ipis);
      ("ctx_switches", float_of_int m.ctx_switches);
      ("invariant_violations", float_of_int m.invariant_violations);
    ]
  in
  global @ List.concat_map vm_kv m.vms
