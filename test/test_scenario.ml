(* Tests for scenario building and the runner protocols. *)

open Asman

let config = Config.with_scale (Config.with_seed Config.default 3L) 0.05

let freq = Config.freq config

let tiny_workload () =
  Sim_workloads.Synthetic.compute_only ~threads:2 ~chunks:3
    ~chunk_cycles:(Sim_engine.Units.cycles_of_ms freq 2) ()

let test_build_creates_dom0 () =
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:
        [ { Scenario.vm_name = "V1"; weight = 256; vcpus = 4;
            workload = Some (tiny_workload ()) } ]
  in
  Alcotest.(check string) "dom0 name" "Domain-0" s.Scenario.dom0.Sim_vmm.Domain.name;
  Alcotest.(check int) "dom0 vcpus = pcpus" 8
    (Sim_vmm.Domain.vcpu_count s.Scenario.dom0);
  Alcotest.(check int) "dom0 weight" 256 s.Scenario.dom0.Sim_vmm.Domain.weight;
  Alcotest.(check int) "two domains total" 2
    (List.length (Sim_vmm.Vmm.domains s.Scenario.vmm))

let test_build_validation () =
  let raised f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (raised (fun () -> Scenario.build config ~sched:Config.Credit ~vms:[]));
  Alcotest.(check bool) "bad weight" true
    (raised (fun () ->
         Scenario.build config ~sched:Config.Credit
           ~vms:[ { Scenario.vm_name = "x"; weight = 0; vcpus = 1; workload = None } ]))

let test_concurrent_marking () =
  let nas =
    Sim_workloads.Nas.workload
      (Sim_workloads.Nas.params Sim_workloads.Nas.EP ~freq ~scale:0.05)
  in
  let cpu =
    Sim_workloads.Speccpu.workload
      (Sim_workloads.Speccpu.params Sim_workloads.Speccpu.Gcc ~freq ~scale:0.05)
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:
        [
          { Scenario.vm_name = "par"; weight = 256; vcpus = 4; workload = Some nas };
          { Scenario.vm_name = "thr"; weight = 256; vcpus = 4; workload = Some cpu };
        ]
  in
  let par = Scenario.find_vm s "par" and thr = Scenario.find_vm s "thr" in
  Alcotest.(check bool) "NAS marked concurrent" true
    par.Scenario.domain.Sim_vmm.Domain.concurrent_type;
  Alcotest.(check bool) "SPEC rate not" false
    thr.Scenario.domain.Sim_vmm.Domain.concurrent_type

let test_idle_vm () =
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:
        [
          { Scenario.vm_name = "busy"; weight = 256; vcpus = 2;
            workload = Some (tiny_workload ()) };
          { Scenario.vm_name = "idle"; weight = 256; vcpus = 2; workload = None };
        ]
  in
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  let idle = Runner.vm_metrics m ~vm:"idle" in
  Alcotest.(check int) "idle VM does nothing" 0 idle.Runner.rounds;
  Alcotest.(check (float 1e-9)) "never online" 0. idle.Runner.online_rate

let test_find_vm () =
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:
        [ { Scenario.vm_name = "V1"; weight = 256; vcpus = 2;
            workload = Some (tiny_workload ()) } ]
  in
  Alcotest.(check string) "found" "V1"
    (Scenario.find_vm s "V1").Scenario.spec.Scenario.vm_name;
  let raised =
    try ignore (Scenario.find_vm s "nope"); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing raises" true raised

let test_vm_helper () =
  let spec = Scenario.vm ~name:"w" (tiny_workload ()) in
  Alcotest.(check int) "default weight" 256 spec.Scenario.weight;
  Alcotest.(check int) "default vcpus" 4 spec.Scenario.vcpus

let test_run_rounds_counts () =
  let workload =
    Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:5
      ~compute_cycles:(Sim_engine.Units.cycles_of_ms freq 1) ~cv:0.01 ()
  in
  (* restart=false: exactly one VM round is ever completed. *)
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2; workload = Some workload } ]
  in
  let m = Runner.run_rounds s ~rounds:3 ~max_sec:1. in
  Alcotest.(check int) "one round only" 1 (Runner.vm_metrics m ~vm:"V").Runner.rounds

let test_run_rounds_multiple () =
  let base =
    Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:4
      ~compute_cycles:(Sim_engine.Units.cycles_of_ms freq 1) ~cv:0.01 ()
  in
  let workload =
    {
      base with
      Sim_workloads.Workload.threads =
        List.map
          (fun s -> { s with Sim_workloads.Workload.restart = true })
          base.Sim_workloads.Workload.threads;
    }
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2; workload = Some workload } ]
  in
  let m = Runner.run_rounds s ~rounds:3 ~max_sec:5. in
  let vm = Runner.vm_metrics m ~vm:"V" in
  Alcotest.(check bool) "at least 3 rounds" true (vm.Runner.rounds >= 3);
  Alcotest.(check int) "durations recorded" vm.Runner.rounds
    (List.length vm.Runner.round_sec);
  List.iter
    (fun d -> if d <= 0. then Alcotest.fail "non-positive round duration")
    vm.Runner.round_sec;
  (* first and mean agree with the recorded list *)
  Alcotest.(check (float 1e-12)) "first" (List.hd vm.Runner.round_sec)
    (Runner.first_round_sec m ~vm:"V")

let test_run_window_duration () =
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2;
               workload = Some (tiny_workload ()) } ]
  in
  let m = Runner.run_window s ~sec:0.25 in
  Alcotest.(check (float 1e-6)) "window length" 0.25 m.Runner.sim_sec;
  (* the registry snapshot keeps simulated time apart from the
     record's own host wall time *)
  let kv = Runner.metrics_kv m in
  Alcotest.(check (option (float 1e-6))) "recorded as sim_sec" (Some 0.25)
    (List.assoc_opt "sim_sec" kv);
  Alcotest.(check bool) "no wall_sec key" false (List.mem_assoc "wall_sec" kv)

let test_run_window_marks () =
  let workload =
    Sim_workloads.Synthetic.lock_storm ~threads:2 ~rounds:1_000_000
      ~cs_cycles:(Sim_engine.Units.cycles_of_us freq 1)
      ~think_cycles:(Sim_engine.Units.cycles_of_us freq 50)
      ()
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2; workload = Some workload } ]
  in
  let m1 = Runner.run_window s ~sec:0.1 in
  let m2 = Runner.run_window s ~sec:0.2 in
  let marks1 = (Runner.vm_metrics m1 ~vm:"V").Runner.marks in
  let marks2 = (Runner.vm_metrics m2 ~vm:"V").Runner.marks in
  Alcotest.(check bool) "throughput measured" true (marks1 > 0);
  (* Twice the window: roughly twice the marks (steady state). *)
  let ratio = float_of_int marks2 /. float_of_int marks1 in
  Alcotest.(check bool)
    (Printf.sprintf "scales with window (%.2f)" ratio)
    true
    (ratio > 1.6 && ratio < 2.4)

let test_invalid_runner_args () =
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2;
               workload = Some (tiny_workload ()) } ]
  in
  let raised f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rounds 0" true
    (raised (fun () -> Runner.run_rounds s ~rounds:0 ~max_sec:1.));
  Alcotest.(check bool) "sec 0" true
    (raised (fun () -> Runner.run_window s ~sec:0.))

let suite =
  [
    Alcotest.test_case "dom0" `Quick test_build_creates_dom0;
    Alcotest.test_case "validation" `Quick test_build_validation;
    Alcotest.test_case "concurrent marking" `Quick test_concurrent_marking;
    Alcotest.test_case "idle VM" `Quick test_idle_vm;
    Alcotest.test_case "find_vm" `Quick test_find_vm;
    Alcotest.test_case "vm helper" `Quick test_vm_helper;
    Alcotest.test_case "run_rounds single" `Quick test_run_rounds_counts;
    Alcotest.test_case "run_rounds multiple" `Quick test_run_rounds_multiple;
    Alcotest.test_case "run_window duration" `Quick test_run_window_duration;
    Alcotest.test_case "run_window marks" `Quick test_run_window_marks;
    Alcotest.test_case "invalid args" `Quick test_invalid_runner_args;
  ]
