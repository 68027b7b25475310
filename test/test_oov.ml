(* Tests for the out-of-VM detection path: PLE generation in the guest
   kernel, delivery through the VMM, and the ASMan-OOV scheduler. *)

open Asman

let config = Config.with_scale (Config.with_seed Config.default 31L) 0.05

let freq = Config.freq config

let lu_scenario ?(sched = Config.Asman_oov) ?(weight = 32) ?guest_params () =
  let config =
    match guest_params with
    | Some gp -> { config with Config.guest_params = Some gp }
    | None -> config
  in
  Scenario.build
    (Config.with_work_conserving config false)
    ~sched
    ~vms:
      [
        {
          Scenario.vm_name = "V1";
          weight;
          vcpus = 4;
          workload =
            Some
              (Sim_workloads.Nas.workload
                 (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq ~scale:0.05));
        };
      ]

let test_ple_fires_when_degraded () =
  let s = lu_scenario ~sched:Config.Credit () in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
  Alcotest.(check bool) "ple exits observed" true
    (Sim_vmm.Vmm.ple_exits s.Scenario.vmm > 0)

let test_no_ple_at_full_rate () =
  let s = lu_scenario ~sched:Config.Credit ~weight:256 () in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
  Alcotest.(check int) "no false positives at 100%" 0
    (Sim_vmm.Vmm.ple_exits s.Scenario.vmm)

let test_ple_disabled () =
  let gp = { (Config.guest_params config) with Sim_guest.Kernel.ple_window = 0 } in
  let s = lu_scenario ~sched:Config.Credit ~guest_params:gp () in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
  Alcotest.(check int) "window 0 disables detection" 0
    (Sim_vmm.Vmm.ple_exits s.Scenario.vmm)

let test_oov_coschedules_without_guest_reports () =
  (* Disable the in-VM Monitoring Module's hypercalls entirely: the
     OOV scheduler must still detect and coschedule via PLEs. *)
  let gp = Config.guest_params config in
  let gp =
    {
      gp with
      Sim_guest.Kernel.monitor =
        { gp.Sim_guest.Kernel.monitor with Sim_guest.Monitor.report_vcrd = false };
    }
  in
  let s = lu_scenario ~guest_params:gp () in
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
  let vm = Runner.vm_metrics m ~vm:"V1" in
  Alcotest.(check bool) "vcrd driven by the VMM itself" true
    (vm.Runner.vcrd_transitions > 0);
  Alcotest.(check bool) "ipis sent" true (m.Runner.ipis > 0)

let test_oov_matches_invm_asman () =
  let time sched =
    let s = lu_scenario ~sched () in
    let m = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
    Runner.first_round_sec m ~vm:"V1"
  in
  let invm = time Config.Asman and oov = time Config.Asman_oov in
  let credit = time Config.Credit in
  Alcotest.(check bool)
    (Printf.sprintf "oov (%.3f) close to in-vm (%.3f), both beat credit (%.3f)"
       oov invm credit)
    true
    (oov < 0.85 *. credit && abs_float (oov -. invm) /. invm < 0.25)

(* A bare VMM under ASMan-OOV with one always-runnable 2-VCPU domain
   and no guest kernel: pause-loop exits are delivered by hand. *)
let oov_env () =
  let engine = Sim_engine.Engine.create ~seed:2L () in
  let machine =
    Sim_hw.Machine.create engine Config.default.Config.cpu
      Config.default.Config.topology
  in
  let vmm = Sim_vmm.Vmm.create machine ~sched:Sim_vmm.Sched_gang.make_oov in
  let domain = Sim_vmm.Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus:2 () in
  Sim_vmm.Vmm.start vmm;
  Array.iter (fun v -> Sim_vmm.Vmm.vcpu_wake vmm v) domain.Sim_vmm.Domain.vcpus;
  let ple () = Sim_vmm.Vmm.pause_loop_exit vmm domain.Sim_vmm.Domain.vcpus.(0) in
  let high () = domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High in
  (engine, vmm, ple, high)

let slot = Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu

let test_oov_window_closes () =
  let engine, _, ple, high = oov_env () in
  ple ();
  Alcotest.(check bool) "high" true (high ());
  (* The longest candidate is 16 slots of online time per VCPU, about
     16 slots of wall time with both VCPUs always online. *)
  Sim_engine.Engine.run ~until:(40 * slot) engine;
  Alcotest.(check bool) "low after window" false (high ())

let test_oov_retrigger_extends () =
  let engine, vmm, ple, high = oov_env () in
  ple ();
  (* Re-trigger inside even the smallest window (slot/2) for longer
     than the longest one: VCRD must stay HIGH throughout. *)
  for i = 1 to 80 do
    Sim_engine.Engine.run ~until:(i * slot / 4) engine;
    Alcotest.(check bool) "still high" true (high ());
    ple ()
  done;
  Alcotest.(check int) "81 exits" 81 (Sim_vmm.Vmm.ple_exits vmm)

(* The out-of-VM detector's VCRD flips are traced like the guest's
   reports: with the Monitoring Module silenced, every Low->High
   transition of the run appears as a [Vcrd_change]. *)
let test_oov_flips_traced () =
  let gp = Config.guest_params config in
  let gp =
    {
      gp with
      Sim_guest.Kernel.monitor =
        { gp.Sim_guest.Kernel.monitor with Sim_guest.Monitor.report_vcrd = false };
    }
  in
  let obs =
    {
      Config.obs_off with
      Config.trace_mask = Sim_obs.Trace.cat_bit Sim_obs.Trace.Vcrd;
      trace_cap = 1 lsl 16;
    }
  in
  let s =
    Scenario.build
      { (Config.with_work_conserving config false) with
        Config.guest_params = Some gp; obs }
      ~sched:Config.Asman_oov
      ~vms:
        [
          {
            Scenario.vm_name = "V1";
            weight = 32;
            vcpus = 4;
            workload =
              Some
                (Sim_workloads.Nas.workload
                   (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq
                      ~scale:0.05));
          };
        ]
  in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
  let dom = (Scenario.find_vm s "V1").Scenario.domain in
  let raises =
    List.length
      (List.filter
         (fun (e : Sim_obs.Trace.entry) ->
           match e.Sim_obs.Trace.ev with
           | Sim_obs.Trace.Vcrd_change { domain; high } ->
             high && domain = dom.Sim_vmm.Domain.id
           | _ -> false)
         (Sim_obs.Trace.entries (Sim_engine.Engine.trace s.Scenario.engine)))
  in
  Alcotest.(check bool) "the detector raised VCRD" true
    (dom.Sim_vmm.Domain.vcrd_transitions > 0);
  Alcotest.(check int) "one traced raise per transition"
    dom.Sim_vmm.Domain.vcrd_transitions raises

let test_sched_names () =
  Alcotest.(check string) "name" "asman-oov" (Config.sched_name Config.Asman_oov);
  Alcotest.(check bool) "parse" true
    (Config.sched_of_name "oov" = Some Config.Asman_oov);
  let custom = Config.Custom ("my-sched", Sim_vmm.Sched_credit.make) in
  Alcotest.(check string) "custom name" "my-sched" (Config.sched_name custom)

let test_gang_knobs_compile_and_run () =
  (* All-off gang scheduler must degrade to roughly Credit behaviour. *)
  let bare =
    Config.Custom
      ( "asman-bare",
        Sim_vmm.Sched_gang.make ~ipi:false ~solidarity:false ~continuity:false
          ~name:"asman-bare"
          ~should_cosched:(fun d -> d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) )
  in
  let time sched =
    let s = lu_scenario ~sched () in
    let m = Runner.run_rounds s ~rounds:1 ~max_sec:60. in
    (Runner.first_round_sec m ~vm:"V1", m.Runner.ipis)
  in
  let bare_t, bare_ipis = time bare in
  let credit_t, _ = time Config.Credit in
  Alcotest.(check int) "no ipis with dispatch off" 0 bare_ipis;
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% of credit (%.3f vs %.3f)" bare_t credit_t)
    true
    (abs_float (bare_t -. credit_t) /. credit_t < 0.4)

let test_llc_aware_cuts_cross_socket_ipis () =
  let nas b =
    Sim_workloads.Nas.workload
      (Sim_workloads.Nas.params b ~freq ~scale:0.05)
  in
  let run sched =
    let s =
      Scenario.build config ~sched
        ~vms:
          (List.mapi
             (fun i b ->
               { Scenario.vm_name = Printf.sprintf "V%d" (i + 1); weight = 256;
                 vcpus = 4; workload = Some (nas b) })
             [ Sim_workloads.Nas.LU; Sim_workloads.Nas.LU;
               Sim_workloads.Nas.SP; Sim_workloads.Nas.SP ])
    in
    let _ = Runner.run_window s ~sec:1.0 in
    let total = Sim_hw.Machine.ipis_sent s.Scenario.machine in
    let cross = Sim_hw.Machine.ipis_cross_socket s.Scenario.machine in
    if total = 0 then 0. else float_of_int cross /. float_of_int total
  in
  let llc =
    Config.Custom
      ( "asman-llc",
        Sim_vmm.Sched_gang.make ~llc_aware:true ~name:"asman-llc"
          ~should_cosched:(fun d -> d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) )
  in
  let plain_share = run Config.Asman and llc_share = run llc in
  Alcotest.(check bool)
    (Printf.sprintf "llc share (%.2f) < plain share (%.2f)" llc_share plain_share)
    true
    (llc_share < plain_share)

let test_ablation_registry () =
  let ids = Ablations.ids () in
  Alcotest.(check int) "eight ablations" 8 (List.length ids);
  List.iter
    (fun id ->
      match Ablations.find id with
      | Some a -> Alcotest.(check string) "id" id a.Experiments.id
      | None -> Alcotest.failf "missing %s" id)
    ids;
  Alcotest.(check bool) "unknown" true (Ablations.find "nope" = None)

let test_ablation_oov_runs () =
  match Ablations.find "ablate-oov" with
  | None -> Alcotest.fail "ablate-oov missing"
  | Some a ->
    let o = a.Experiments.run (Config.with_scale config 0.03) in
    Alcotest.(check int) "three series" 3 (List.length o.Experiments.series);
    Alcotest.(check bool) "has a note" true (o.Experiments.notes <> [])

let suite =
  [
    Alcotest.test_case "ple fires when degraded" `Quick test_ple_fires_when_degraded;
    Alcotest.test_case "no ple at 100%" `Quick test_no_ple_at_full_rate;
    Alcotest.test_case "ple disabled" `Quick test_ple_disabled;
    Alcotest.test_case "oov needs no guest reports" `Quick
      test_oov_coschedules_without_guest_reports;
    Alcotest.test_case "oov matches in-vm" `Slow test_oov_matches_invm_asman;
    Alcotest.test_case "oov window closes" `Quick test_oov_window_closes;
    Alcotest.test_case "oov retrigger extends" `Quick test_oov_retrigger_extends;
    Alcotest.test_case "oov flips traced" `Quick test_oov_flips_traced;
    Alcotest.test_case "sched names" `Quick test_sched_names;
    Alcotest.test_case "gang knobs" `Slow test_gang_knobs_compile_and_run;
    Alcotest.test_case "llc-aware relocation" `Slow
      test_llc_aware_cuts_cross_socket_ipis;
    Alcotest.test_case "ablation registry" `Quick test_ablation_registry;
    Alcotest.test_case "ablate-oov runs" `Slow test_ablation_oov_runs;
  ]
