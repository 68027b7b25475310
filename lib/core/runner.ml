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

(* Everything countable now flows through the VMM's metrics registry:
   the measurement baseline is one snapshot, and window values are a
   pointwise diff — no per-counter side tables. Cumulative-by-design
   quantities (over-threshold detections, adjusting events, VCRD
   transitions, spin time) read the absolute snapshot, matching the
   pre-registry semantics exactly. *)
let collect (s : Scenario.t) ~round_times ~started ~base =
  let f = freq s in
  let now = Engine.now s.Scenario.engine in
  let snap = Metrics.snapshot (Sim_vmm.Vmm.metrics s.Scenario.vmm) in
  let d = Metrics.diff ~base snap in
  let vms =
    List.map
      (fun (inst : Scenario.vm_instance) ->
        let name = inst.Scenario.spec.Scenario.vm_name in
        let times =
          match Hashtbl.find_opt round_times name with
          | Some l -> List.rev !l
          | None -> []
        in
        let round_sec =
          let rec durations prev = function
            | [] -> []
            | t :: rest ->
              Units.sec_of_cycles f (t - prev) :: durations t rest
          in
          durations started times
        in
        let guest of_ n = Metrics.get of_ ~subsystem:"guest" ~vm:name ~name:n () in
        {
          vm_name = name;
          rounds = List.length times;
          round_sec;
          marks = guest d "marks";
          online_rate = Sim_vmm.Vmm.online_rate s.Scenario.vmm inst.Scenario.domain;
          expected_online = Scenario.expected_online_rate s inst;
          attained_cycles =
            Sim_vmm.Vmm.attained_cycles s.Scenario.vmm inst.Scenario.domain;
          entitled_cycles =
            Sim_vmm.Vmm.entitled_cycles s.Scenario.vmm inst.Scenario.domain;
          theft_cycles =
            Sim_vmm.Vmm.theft_cycles s.Scenario.vmm inst.Scenario.domain;
          spin_over_threshold = guest snap "over_threshold";
          adjusting_events = guest snap "adjusting_events";
          vcrd_transitions =
            Metrics.get snap ~subsystem:"vmm" ~vm:name ~name:"vcrd_transitions" ();
          total_spin_sec = Units.sec_of_cycles f (guest snap "total_spin_cycles");
          watchdog_demotions =
            Metrics.get d ~subsystem:"watchdog" ~vm:name ~name:"demotions" ();
          invariant_violations =
            Metrics.get d ~subsystem:"vmm" ~vm:name ~name:"invariant_violations" ();
        })
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

(* Track VM-round completion times via the kernels' round hooks: VM
   round k completes when the slowest thread finishes its k-th pass. *)
let install_round_tracking (s : Scenario.t) ~on_all_done ~target =
  let round_times = Hashtbl.create (List.length s.Scenario.vms) in
  List.iter
    (fun (inst : Scenario.vm_instance) ->
      Hashtbl.replace round_times inst.Scenario.spec.Scenario.vm_name (ref []))
    s.Scenario.vms;
  let workload_vms =
    List.filter (fun (i : Scenario.vm_instance) -> i.Scenario.kernel <> None) s.Scenario.vms
  in
  let done_vms = Hashtbl.create 8 in
  List.iter
    (fun (inst : Scenario.vm_instance) ->
      match inst.Scenario.kernel with
      | None -> ()
      | Some k ->
        let name = inst.Scenario.spec.Scenario.vm_name in
        let times = Hashtbl.find round_times name in
        Sim_guest.Kernel.set_round_hook k (fun _ ~round:_ ~duration:_ ->
            let completed = Sim_guest.Kernel.min_rounds k in
            let recorded = List.length !times in
            if completed > recorded then begin
              let now = Engine.now s.Scenario.engine in
              for _ = recorded + 1 to completed do
                times := now :: !times
              done;
              if completed >= target && not (Hashtbl.mem done_vms name) then begin
                Hashtbl.replace done_vms name ();
                if Hashtbl.length done_vms = List.length workload_vms then
                  on_all_done ()
              end
            end))
    s.Scenario.vms;
  round_times

let baseline (s : Scenario.t) =
  Metrics.snapshot (Sim_vmm.Vmm.metrics s.Scenario.vmm)

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

let run_rounds ?probe (s : Scenario.t) ~rounds ~max_sec =
  if rounds <= 0 then invalid_arg "Runner.run_rounds: rounds must be positive";
  let started = Engine.now s.Scenario.engine in
  let base = baseline s in
  let round_times =
    install_round_tracking s ~target:rounds ~on_all_done:(fun () ->
        Engine.halt s.Scenario.engine)
  in
  let limit = started + Units.cycles_of_sec_f (freq s) max_sec in
  timed s "engine.run" (fun () ->
      with_probe s probe (fun () -> Engine.run ~until:limit s.Scenario.engine));
  timed s "collect" (fun () -> collect s ~round_times ~started ~base)

let reset_measurements (s : Scenario.t) =
  Sim_vmm.Vmm.reset_accounting s.Scenario.vmm;
  List.iter
    (fun (inst : Scenario.vm_instance) ->
      match inst.Scenario.kernel with
      | None -> ()
      | Some k ->
        Sim_guest.Kernel.reset_marks k;
        Sim_guest.Monitor.reset_window (Sim_guest.Kernel.monitor k))
    s.Scenario.vms

let run_window ?probe (s : Scenario.t) ~sec =
  if sec <= 0. then invalid_arg "Runner.run_window: sec must be positive";
  reset_measurements s;
  let started = Engine.now s.Scenario.engine in
  let base = baseline s in
  let round_times =
    install_round_tracking s ~target:max_int ~on_all_done:(fun () -> ())
  in
  let limit = started + Units.cycles_of_sec_f (freq s) sec in
  timed s "engine.run" (fun () ->
      with_probe s probe (fun () -> Engine.run ~until:limit s.Scenario.engine));
  timed s "collect" (fun () -> collect s ~round_times ~started ~base)

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
  let per_vm =
    List.concat_map
      (fun vm ->
        let k suffix = Printf.sprintf "vm.%s.%s" vm.vm_name suffix in
        [
          (k "rounds", float_of_int vm.rounds);
          (k "online_rate", vm.online_rate);
          (k "attained_cycles", float_of_int vm.attained_cycles);
          (k "entitled_cycles", float_of_int vm.entitled_cycles);
          (k "theft_cycles", float_of_int vm.theft_cycles);
        ])
      m.vms
  in
  global @ per_vm
