(* SimCheck's own tests: generator determinism and serialization,
   each oracle against a hand-built violating record, shrinker
   convergence on planted bugs, the committed repro corpus, and the
   timed-out-case reporting path. *)

open Asman
module Trace = Sim_obs.Trace
module Gen = Sim_check.Gen
module Spec = Sim_check.Spec
module Oracle = Sim_check.Oracle
module Shrink = Sim_check.Shrink
module Case = Sim_check.Case
module Check = Sim_check.Check

(* [dune runtest] runs the binary in the test directory, where
   [corpus/] sits; run by hand from the repository root, the binary
   finds it under [test/]. *)
let corpus_dir =
  List.find_opt Sys.file_exists [ "corpus"; Filename.concat "test" "corpus" ]
  |> Option.value ~default:"corpus"

(* ----- generator ----- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld regenerates identically" seed)
        true
        (Gen.spec seed = Gen.spec seed))
    [ 1L; 2L; 42L; -7L; 0x4D595DF4D0F33173L ]

let test_gen_case_seeds_distinct () =
  let seen = Hashtbl.create 256 in
  for index = 0 to 99 do
    Hashtbl.replace seen (Gen.case_seed ~seed:1L ~index) ()
  done;
  Alcotest.(check int) "100 distinct case seeds" 100 (Hashtbl.length seen)

let test_gen_specs_valid () =
  for index = 0 to 49 do
    let spec = Gen.spec (Gen.case_seed ~seed:3L ~index) in
    match Spec.validate spec with
    | Ok () -> ()
    | Error e -> Alcotest.failf "generated spec %d invalid: %s" index e
  done

let test_spec_json_roundtrip () =
  for index = 0 to 49 do
    let spec = Gen.spec (Gen.case_seed ~seed:4L ~index) in
    let spec' = Spec.of_string (Spec.to_string spec) in
    if spec' <> spec then
      Alcotest.failf "spec %d did not survive JSON round-trip:\n%s" index
        (Spec.to_string spec)
  done

(* ----- oracles vs hand-built violating records ----- *)

let vm_obs ?(domain = 1) ?(vcpus = [| 2; 3 |]) ?(weight = 256)
    ?(concurrent = true) ?credits ?(rate = 0.5) ?(expected = 0.5)
    ?(attacker = false) name =
  {
    Oracle.o_name = name;
    o_domain = domain;
    o_vcpus = vcpus;
    o_weight = weight;
    o_concurrent = concurrent;
    o_final_credits =
      (match credits with
      | Some c -> c
      | None -> Array.map (fun _ -> 0) vcpus);
    o_online_rate = rate;
    o_expected_online = expected;
    o_attacker = attacker;
  }

(* pcpus 2, slot 10 M cycles, 3 slots/period, unit 1000: floor -3000,
   cap 6000, gang window slot/4 = 2.5 M. *)
let input ?(pcpus = 2) ?(sched = Config.Asman) ?(check_fairness = false)
    ?(accounting = Sim_vmm.Vmm.Precise) ?(check_entitlement = false)
    ?(finished = 100_000_000) ?(entries = []) ?(runtime_violations = 0)
    ?(structural = Ok ()) ?(probe_errors = []) ?(vms = [ vm_obs "vm0" ]) () =
  {
    Oracle.pcpus;
    slot_cycles = 10_000_000;
    slots_per_period = 3;
    work_conserving = true;
    clean = true;
    sched;
    check_fairness;
    accounting;
    check_entitlement;
    started = 0;
    finished;
    entries;
    trace_dropped = 0;
    dom0 = 0;
    dom0_vcpus = [| 0; 1 |];
    vms;
    runtime_violations;
    runtime_messages =
      (if runtime_violations > 0 then [ "planted violation" ] else []);
    structural;
    probe_errors;
  }

let check_verdict name oracle expect inp =
  let got =
    match oracle.Oracle.check inp with
    | Oracle.Pass -> "pass"
    | Oracle.Skip _ -> "skip"
    | Oracle.Fail _ -> "fail"
  in
  Alcotest.(check string) name expect got

let at t ev = { Trace.at = t; ev }

let test_oracle_invariants () =
  check_verdict "clean input passes" Oracle.invariants "pass" (input ());
  check_verdict "runtime violation fails" Oracle.invariants "fail"
    (input ~runtime_violations:1 ());
  check_verdict "probe error fails" Oracle.invariants "fail"
    (input ~probe_errors:[ "vcpu 2 queued twice" ] ());
  check_verdict "final structural error fails" Oracle.invariants "fail"
    (input ~structural:(Error "vcpu 2 lost") ())

let test_oracle_credit_bounds () =
  check_verdict "credits at zero pass" Oracle.credit_bounds "pass" (input ());
  check_verdict "credit above cap fails" Oracle.credit_bounds "fail"
    (input ~vms:[ vm_obs ~credits:[| 6001; 0 |] "vm0" ] ());
  check_verdict "credit below floor fails" Oracle.credit_bounds "fail"
    (input ~vms:[ vm_obs ~credits:[| 0; -3001 |] "vm0" ] ())

let test_oracle_monotonic_time () =
  check_verdict "ordered entries pass" Oracle.monotonic_time "pass"
    (input
       ~entries:
         [
           at 10 (Trace.Sched_idle { pcpu = 0 });
           at 20 (Trace.Sched_idle { pcpu = 1 });
         ]
       ());
  check_verdict "time going backwards fails" Oracle.monotonic_time "fail"
    (input
       ~entries:
         [
           at 20 (Trace.Sched_idle { pcpu = 0 });
           at 10 (Trace.Sched_idle { pcpu = 1 });
         ]
       ());
  check_verdict "timestamp beyond window end fails" Oracle.monotonic_time
    "fail"
    (input ~finished:100 ~entries:[ at 200 (Trace.Sched_idle { pcpu = 0 }) ] ())

let test_oracle_trace_wellformed () =
  check_verdict "pcpu out of range fails" Oracle.trace_wellformed "fail"
    (input ~entries:[ at 10 (Trace.Sched_idle { pcpu = 5 }) ] ());
  check_verdict "unknown domain fails" Oracle.trace_wellformed "fail"
    (input
       ~entries:[ at 10 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 9 }) ]
       ());
  check_verdict "gang launch without IPIs fails" Oracle.trace_wellformed "fail"
    (input
       ~entries:
         [
           at 10
             (Trace.Gang_launch { domain = 1; pcpu = 0; ipis = 0; retry = false });
         ]
       ())

let test_oracle_vcpu_conservation () =
  check_verdict "unknown vcpu in schedule fails" Oracle.vcpu_conservation
    "fail"
    (input
       ~entries:
         [ at 10 (Trace.Sched_switch { pcpu = 0; vcpu = 99; domain = 1 }) ]
       ());
  (* the same VCPU switched onto both PCPUs, never descheduled: its
     running intervals overlap — a duplicated VCPU *)
  check_verdict "vcpu on two PCPUs at once fails" Oracle.vcpu_conservation
    "fail"
    (input
       ~entries:
         [
           at 10 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 1 });
           at 20 (Trace.Sched_switch { pcpu = 1; vcpu = 2; domain = 1 });
         ]
       ());
  check_verdict "disjoint schedule passes" Oracle.vcpu_conservation "pass"
    (input
       ~entries:
         [
           at 10 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 1 });
           at 20 (Trace.Sched_block { pcpu = 0; vcpu = 2; domain = 1 });
           at 30 (Trace.Sched_switch { pcpu = 1; vcpu = 2; domain = 1 });
         ]
       ())

let test_oracle_credit_burn () =
  (* vcpu 2 runs 21 slots' worth and blocks; nothing ever billed *)
  let running =
    [
      at 10 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 1 });
      at 210_000_000 (Trace.Sched_block { pcpu = 0; vcpu = 2; domain = 1 });
    ]
  in
  check_verdict "unbilled run time fails" Oracle.credit_burn "fail"
    (input ~finished:300_000_000 ~entries:running ());
  let billed =
    running
    @ [
        at 210_000_001
          (Trace.Credit_account
             { vcpu = 2; domain = 1; credit = 0; burned = 21_000 });
      ]
  in
  check_verdict "billed run time passes" Oracle.credit_burn "pass"
    (input ~finished:300_000_000 ~entries:billed ())

let test_oracle_proportionality () =
  let fairness rate =
    input ~check_fairness:true ~sched:Config.Credit
      ~vms:[ vm_obs ~rate ~expected:0.5 "vm0" ]
      ()
  in
  check_verdict "share within tolerance passes" Oracle.proportionality "pass"
    (fairness 0.45);
  check_verdict "starved VM fails" Oracle.proportionality "fail"
    (fairness 0.2);
  check_verdict "slack absorption above share passes" Oracle.proportionality
    "pass" (fairness 0.9);
  check_verdict "non-fairness shape skips" Oracle.proportionality "skip"
    (input ~vms:[ vm_obs ~rate:0.0 ~expected:0.5 "vm0" ] ())

(* A gang launch of domain 1 while sibling vcpu 2 is trace-provably
   Ready (it was displaced by dom0, not blocked) and never runs in
   the slot/4 window. *)
let gang_entries ~rescued =
  [
    at 100 (Trace.Vcrd_change { domain = 1; high = true });
    at 200 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 1 });
    at 300 (Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 0 });
    at 400 (Trace.Sched_switch { pcpu = 1; vcpu = 3; domain = 1 });
    at 500 (Trace.Gang_launch { domain = 1; pcpu = 1; ipis = 1; retry = false });
  ]
  @
  if rescued then [ at 600 (Trace.Sched_switch { pcpu = 0; vcpu = 2; domain = 1 }) ]
  else []

let test_oracle_gang_atomicity () =
  check_verdict "dropped ready sibling fails" Oracle.gang_atomicity "fail"
    (input ~entries:(gang_entries ~rescued:false) ());
  check_verdict "sibling running within window passes" Oracle.gang_atomicity
    "pass"
    (input ~entries:(gang_entries ~rescued:true) ());
  check_verdict "credit scheduler skips" Oracle.gang_atomicity "skip"
    (input ~sched:Config.Credit ~entries:(gang_entries ~rescued:false) ());
  check_verdict "asman-oov skips" Oracle.gang_atomicity "skip"
    (input ~sched:Config.Asman_oov ~entries:(gang_entries ~rescued:false) ())

let test_run_all_reports_failures () =
  let bad = input ~vms:[ vm_obs ~credits:[| 6001; 0 |] "vm0" ] () in
  let failures = Oracle.run_all bad in
  Alcotest.(check bool)
    "credit-bounds failure reported" true
    (List.exists (fun f -> f.Oracle.oracle = "credit-bounds") failures);
  Alcotest.(check (list string)) "clean input yields no failures" []
    (List.map (fun f -> f.Oracle.oracle) (Oracle.run_all (input ())))

(* ----- shrinker ----- *)

let big_spec =
  {
    Spec.seed = 1L;
    sched = Config.Asman;
    scale = 0.05;
    work_conserving = true;
    faults = Sim_faults.Fault.chaos_mild;
    queue = Sim_engine.Engine.Wheel_queue;
    sim_jobs = 1;
    sockets = 2;
    cores_per_socket = 4;
    horizon_sec = 0.4;
    check_fairness = false;
    accounting = Sim_vmm.Vmm.Precise;
    check_entitlement = false;
    vms =
      List.init 4 (fun i ->
          {
            Scenario.vd_name = Printf.sprintf "vm%d" i;
            vd_weight = 256;
            vd_vcpus = 8;
            vd_workload =
              Some
                (Scenario.W_compute { threads = 4; chunks = 100; chunk_us = 500 });
          });
    cluster = None;
    provenance = None;
  }

let planted = [ { Oracle.oracle = "planted"; message = "bug" } ]

let test_shrink_converges () =
  (* the planted bug needs one VM with >= 2 VCPUs; everything else
     must shrink away *)
  let fails (s : Spec.t) =
    if List.exists (fun (v : Scenario.vm_desc) -> v.vd_vcpus >= 2) s.Spec.vms
    then
      planted
    else []
  in
  let shrunk, failures =
    Shrink.minimize ~budget:500 ~fails big_spec ~initial_failures:planted
  in
  Alcotest.(check bool) "still failing" true (failures <> []);
  Alcotest.(check int) "one VM left" 1 (List.length shrunk.Spec.vms);
  Alcotest.(check int) "vcpus at the failure threshold" 2
    (List.fold_left (fun m (v : Scenario.vm_desc) -> max m v.vd_vcpus) 0
       shrunk.Spec.vms);
  Alcotest.(check string) "faults dropped" "none"
    shrunk.Spec.faults.Sim_faults.Fault.pname;
  Alcotest.(check bool) "horizon shrunk to the floor" true
    (shrunk.Spec.horizon_sec <= 0.05 +. 1e-9)

let test_shrink_stays_on_same_oracle () =
  (* dropping to a single VM would trade failure A for failure B; the
     shrinker must refuse the trade and stop at two VMs *)
  let fails (s : Spec.t) =
    if List.length s.Spec.vms > 1 then [ { Oracle.oracle = "A"; message = "" } ]
    else [ { Oracle.oracle = "B"; message = "" } ]
  in
  let shrunk, failures =
    Shrink.minimize ~budget:500 ~fails big_spec
      ~initial_failures:[ { Oracle.oracle = "A"; message = "" } ]
  in
  Alcotest.(check int) "stopped at two VMs" 2 (List.length shrunk.Spec.vms);
  Alcotest.(check bool) "failure is still oracle A" true
    (List.exists (fun f -> f.Oracle.oracle = "A") failures)

let test_shrink_respects_budget () =
  let evals = ref 0 in
  let fails _ =
    incr evals;
    planted
  in
  let _ = Shrink.minimize ~budget:7 ~fails big_spec ~initial_failures:planted in
  Alcotest.(check bool)
    (Printf.sprintf "at most 7 evaluations (got %d)" !evals)
    true (!evals <= 7)

let test_oracle_entitlement () =
  let attacker = vm_obs ~attacker:true ~vcpus:[| 9 |] ~rate:0.4 ~expected:0.1 "attacker" in
  let victim = vm_obs ~rate:0.5 ~expected:0.5 "victim0" in
  check_verdict "non-attack shape skips" Oracle.entitlement "skip"
    (input ~vms:[ attacker; victim ] ());
  check_verdict "sampled accounting skips (theft is modeled behaviour)"
    Oracle.entitlement "skip"
    (input ~accounting:Sim_vmm.Vmm.Sampled ~check_entitlement:true
       ~vms:[ attacker; victim ] ());
  check_verdict "faulty run skips" Oracle.entitlement "skip"
    {
      (input ~check_entitlement:true ~vms:[ attacker; victim ] ()) with
      Oracle.clean = false;
    };
  check_verdict "attacker 4x entitlement over 1x victims fails"
    Oracle.entitlement "fail"
    (input ~check_entitlement:true ~vms:[ attacker; victim ] ());
  check_verdict "attacker within entitlement passes" Oracle.entitlement "pass"
    (input ~check_entitlement:true
       ~vms:
         [
           vm_obs ~attacker:true ~vcpus:[| 9 |] ~rate:0.12 ~expected:0.1
             "attacker";
           victim;
         ]
       ());
  (* work-conserving slack lifts everyone: the attacker is over its
     entitlement but so are the victims, so nothing was stolen *)
  check_verdict "shared slack passes the relative test" Oracle.entitlement
    "pass"
    (input ~check_entitlement:true
       ~vms:
         [
           vm_obs ~attacker:true ~vcpus:[| 9 |] ~rate:0.3 ~expected:0.1
             "attacker";
           vm_obs ~rate:0.8 ~expected:0.5 "victim0";
         ]
       ());
  check_verdict "no victims skips" Oracle.entitlement "skip"
    (input ~check_entitlement:true ~vms:[ attacker ] ());
  check_verdict "no attackers skips" Oracle.entitlement "skip"
    (input ~check_entitlement:true ~vms:[ victim ] ())

(* ----- planted mutation caught end to end ----- *)

(* The shrunk shape the fuzzer itself converged to for this mutation:
   one NAS VM, capped mode. Deterministic, so a directed test can pin
   it. *)
let mutation_spec =
  {
    Spec.seed = 6693850188908107858L;
    sched = Config.Cosched_static;
    scale = 0.05;
    work_conserving = false;
    faults = Sim_faults.Fault.none;
    queue = Sim_engine.Engine.Wheel_queue;
    sim_jobs = 1;
    sockets = 2;
    cores_per_socket = 2;
    horizon_sec = 0.14;
    check_fairness = false;
    accounting = Sim_vmm.Vmm.Precise;
    check_entitlement = false;
    vms =
      [
        {
          Scenario.vd_name = "vm0";
          vd_weight = 1024;
          vd_vcpus = 2;
          vd_workload = Some (Scenario.W_nas "CG");
        };
      ];
    cluster = None;
    provenance = None;
  }

let test_mutation_skip_credit_burn_caught () =
  Fun.protect
    ~finally:(fun () -> Sim_vmm.Mutation.set None)
    (fun () ->
      Alcotest.(check (list string))
        "spec passes unmutated" []
        (List.map
           (fun f -> f.Oracle.oracle)
           (Case.run mutation_spec));
      Sim_vmm.Mutation.set (Some Sim_vmm.Mutation.Skip_credit_burn);
      let failures = Case.run mutation_spec in
      Alcotest.(check bool)
        "credit-burn oracle catches the planted bug" true
        (List.exists (fun f -> f.Oracle.oracle = "credit-burn") failures))

(* The committed tick-dodge corpus shape, pinned: replays clean with
   real precise accounting, and the entitlement oracle must convict it
   once the [Sampled_accounting] mutation silently turns the precise
   charge path into tick-sampled debiting. *)
let sampled_mutation_spec =
  {
    Spec.seed = -4619933354561587056L;
    sched = Config.Asman;
    scale = 0.05;
    work_conserving = false;
    faults = Sim_faults.Fault.none;
    queue = Sim_engine.Engine.Heap_queue;
    sim_jobs = 1;
    sockets = 1;
    cores_per_socket = 1;
    horizon_sec = 0.125;
    check_fairness = false;
    accounting = Sim_vmm.Vmm.Precise;
    check_entitlement = true;
    vms =
      [
        {
          Scenario.vd_name = "attacker";
          vd_weight = 64;
          vd_vcpus = 1;
          vd_workload = Some (Scenario.W_attack_dodge { threads = 1 });
        };
        {
          Scenario.vd_name = "victim1";
          vd_weight = 512;
          vd_vcpus = 1;
          vd_workload = Some (Scenario.W_speccpu "bzip2");
        };
      ];
    cluster = None;
    provenance = None;
  }

let test_mutation_sampled_accounting_caught () =
  Fun.protect
    ~finally:(fun () -> Sim_vmm.Mutation.set None)
    (fun () ->
      Alcotest.(check (list string))
        "attack spec passes unmutated" []
        (List.map (fun f -> f.Oracle.oracle) (Case.run sampled_mutation_spec));
      Sim_vmm.Mutation.set (Some Sim_vmm.Mutation.Sampled_accounting);
      let failures = Case.run sampled_mutation_spec in
      Alcotest.(check bool)
        "entitlement oracle catches the planted bug" true
        (List.exists (fun f -> f.Oracle.oracle = "entitlement") failures))

(* The shrunk repro the fuzzer wrote for this mutation
   ([check --cases 200 --seed 1 --mutate drop-gang-sibling], case 35:
   two lock-storm VMs under ASMan), committed to the corpus: it
   replays clean, and the gang-atomicity oracle must convict it once
   [Drop_gang_sibling] makes gang launches skip a ready sibling. *)
let test_mutation_drop_gang_sibling_caught () =
  let spec = Spec.load (Filename.concat corpus_dir "gang-drop-sibling.json") in
  Fun.protect
    ~finally:(fun () -> Sim_vmm.Mutation.set None)
    (fun () ->
      Alcotest.(check (list string))
        "gang spec passes unmutated" []
        (List.map (fun f -> f.Oracle.oracle) (Case.run spec));
      Sim_vmm.Mutation.set (Some Sim_vmm.Mutation.Drop_gang_sibling);
      let failures = Case.run spec in
      Alcotest.(check bool)
        "gang-atomicity oracle catches the planted bug" true
        (List.exists (fun f -> f.Oracle.oracle = "gang-atomicity") failures))

(* ----- the cluster axis ----- *)

let cluster_spec =
  {
    Spec.seed = 11L;
    sched = Config.Credit;
    scale = 0.05;
    work_conserving = true;
    faults = Sim_faults.Fault.none;
    queue = Sim_engine.Engine.Wheel_queue;
    sim_jobs = 1;
    sockets = 1;
    cores_per_socket = 2;
    horizon_sec = 0.3;
    check_fairness = false;
    accounting = Sim_vmm.Vmm.Precise;
    check_entitlement = false;
    vms = [];
    cluster =
      Some
        {
          Spec.cl_hosts = 4;
          cl_trace_seed = 7L;
          cl_policy = Sim_cluster.Placement.First_fit;
          cl_dist = Sim_cluster.Vtrace.Bimodal;
          cl_vms = 6;
        };
    provenance = None;
  }

let test_cluster_spec_json () =
  Alcotest.(check bool) "cluster spec survives JSON round-trip" true
    (Spec.of_string (Spec.to_string cluster_spec) = cluster_spec);
  (* back-compat: single-host spec JSON (no "cluster" key, as every
     pre-cluster corpus file) parses to a single-host spec *)
  let single = Spec.to_string mutation_spec in
  Alcotest.(check bool) "no cluster key emitted for single-host specs" true
    (Sim_obs.Json.member "cluster" (Sim_obs.Json.of_string single)
    = None);
  Alcotest.(check bool) "absent cluster key parses to None" true
    ((Spec.of_string single).Spec.cluster = None)

let test_cluster_spec_validation () =
  let with_cluster f =
    match cluster_spec.Spec.cluster with
    | Some c -> { cluster_spec with Spec.cluster = Some (f c) }
    | None -> assert false
  in
  let rejected s =
    match Spec.validate s with Ok () -> false | Error _ -> true
  in
  Alcotest.(check bool) "cluster spec validates" true
    (Spec.validate cluster_spec = Ok ());
  Alcotest.(check bool) "zero hosts rejected" true
    (rejected (with_cluster (fun c -> { c with Spec.cl_hosts = 0 })));
  Alcotest.(check bool) "empty trace rejected" true
    (rejected (with_cluster (fun c -> { c with Spec.cl_vms = 0 })));
  Alcotest.(check bool) "cluster excludes fault injection" true
    (rejected { cluster_spec with Spec.faults = Sim_faults.Fault.chaos_mild });
  Alcotest.(check bool) "cluster excludes a decoupled host" true
    (rejected { cluster_spec with Spec.sim_jobs = 2 })

(* Enumerated names are parsed once, in [Spec.of_json]: an unknown
   name is a malformed spec, refused at load time. *)
let test_spec_rejects_unknown_names () =
  let rec set key v = function
    | Sim_obs.Json.Obj kvs ->
      Sim_obs.Json.Obj
        (List.map (fun (k, x) -> (k, if k = key then v else set key v x)) kvs)
    | j -> j
  in
  List.iter
    (fun (key, bad) ->
      let j = set key (Sim_obs.Json.String bad) (Spec.to_json cluster_spec) in
      match Spec.of_json j with
      | _ -> Alcotest.failf "%s %S accepted" key bad
      | exception Sim_obs.Json.Parse_error _ -> ())
    [
      ("sched", "fifo"); ("faults", "gamma-rays"); ("queue", "stack");
      ("accounting", "lazy"); ("policy", "psychic"); ("dist", "cauchy");
    ]

(* The planted double-place mutation end to end: the pinned cluster
   spec replays clean, the armed mutation books arriving VMs on two
   hosts, the cluster-conservation oracle convicts it, and the
   shrinker walks the datacenter down to a <= 2-host one-VM repro
   (one host cannot double-place: there is no second feasible host). *)
let test_mutation_double_place_caught () =
  Fun.protect
    ~finally:(fun () -> Sim_vmm.Mutation.set None)
    (fun () ->
      Alcotest.(check (list string))
        "cluster spec passes unmutated" []
        (List.map (fun f -> f.Oracle.oracle) (Case.run cluster_spec));
      Sim_vmm.Mutation.set (Some Sim_vmm.Mutation.Double_place);
      let failures = Case.run cluster_spec in
      Alcotest.(check bool)
        "cluster-conservation oracle catches the planted bug" true
        (List.exists
           (fun f -> f.Oracle.oracle = "cluster-conservation")
           failures);
      let shrunk, still =
        Shrink.minimize ~budget:40 ~fails:Case.run cluster_spec
          ~initial_failures:failures
      in
      Alcotest.(check bool) "shrunk repro still fails the same oracle" true
        (List.exists
           (fun f -> f.Oracle.oracle = "cluster-conservation")
           still);
      match shrunk.Spec.cluster with
      | None -> Alcotest.fail "shrinker dropped the cluster axis"
      | Some c ->
        Alcotest.(check bool)
          (Printf.sprintf "shrunk to <= 2 hosts (got %d)" c.Spec.cl_hosts)
          true (c.Spec.cl_hosts <= 2);
        Alcotest.(check int) "shrunk to a single-entry trace" 1 c.Spec.cl_vms)

(* ----- timed-out cases are reported, not dropped ----- *)

let test_timeout_reported_with_seed () =
  let report = Check.run ~jobs:2 ~timeout_sec:1e-6 ~cases:2 ~seed:5L () in
  Alcotest.(check bool) "run fails" false (Check.passed report);
  match report.Check.timeouts with
  | [ t ] ->
    Alcotest.(check int64)
      "timeout carries the case seed"
      (Gen.case_seed ~seed:5L ~index:t.Check.tr_index)
      t.Check.tr_seed
  | ts -> Alcotest.failf "expected exactly one timeout, got %d" (List.length ts)

(* ----- the committed corpus replays clean ----- *)

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare

let test_corpus_replays () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is not empty" true (List.length files >= 3);
  List.iter
    (fun f ->
      let spec = Spec.load (Filename.concat corpus_dir f) in
      match Case.run spec with
      | [] -> ()
      | fs ->
        Alcotest.failf "corpus case %s failed: %s: %s" f
          (List.hd fs).Oracle.oracle (List.hd fs).Oracle.message)
    files

(* Every committed case is stored in the form [Spec.save] writes, so
   a load and a save give back its own bytes. Keys older files lack
   still load as their defaults. *)
let test_corpus_round_trips () =
  List.iter
    (fun f ->
      let path = Filename.concat corpus_dir f in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) (f ^ " re-saves to its own bytes") bytes
        (Spec.to_string (Spec.of_string bytes)))
    (corpus_files ());
  let path = Filename.concat corpus_dir "legacy-random-asman.json" in
  let stripped =
    match Sim_obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Sim_obs.Json.Obj kv ->
      Sim_obs.Json.Obj
        (List.filter
           (fun (k, _) -> not (List.mem k [ "sim_jobs"; "accounting"; "check_entitlement" ]))
           kv)
    | _ -> Alcotest.fail "corpus case is not an object"
  in
  Alcotest.(check bool) "absent optional keys load as defaults" true
    (Spec.of_string (Sim_obs.Json.to_string stripped) = Spec.load path)

let suite =
  [
    Alcotest.test_case "generator is seed-deterministic" `Quick
      test_gen_deterministic;
    Alcotest.test_case "case seeds are distinct" `Quick
      test_gen_case_seeds_distinct;
    Alcotest.test_case "generated specs validate" `Quick test_gen_specs_valid;
    Alcotest.test_case "spec JSON round-trips" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "oracle: invariants" `Quick test_oracle_invariants;
    Alcotest.test_case "oracle: credit-bounds" `Quick test_oracle_credit_bounds;
    Alcotest.test_case "oracle: monotonic-time" `Quick
      test_oracle_monotonic_time;
    Alcotest.test_case "oracle: trace-wellformed" `Quick
      test_oracle_trace_wellformed;
    Alcotest.test_case "oracle: vcpu-conservation" `Quick
      test_oracle_vcpu_conservation;
    Alcotest.test_case "oracle: credit-burn" `Quick test_oracle_credit_burn;
    Alcotest.test_case "oracle: proportionality" `Quick
      test_oracle_proportionality;
    Alcotest.test_case "oracle: gang-atomicity" `Quick
      test_oracle_gang_atomicity;
    Alcotest.test_case "oracle: entitlement" `Quick test_oracle_entitlement;
    Alcotest.test_case "run_all reports failures" `Quick
      test_run_all_reports_failures;
    Alcotest.test_case "shrinker converges on a planted bug" `Quick
      test_shrink_converges;
    Alcotest.test_case "shrinker refuses to change bugs" `Quick
      test_shrink_stays_on_same_oracle;
    Alcotest.test_case "shrinker respects its budget" `Quick
      test_shrink_respects_budget;
    Alcotest.test_case "planted skip-credit-burn is caught" `Slow
      test_mutation_skip_credit_burn_caught;
    Alcotest.test_case "planted sampled-accounting is caught" `Slow
      test_mutation_sampled_accounting_caught;
    Alcotest.test_case "planted drop-gang-sibling is caught" `Slow
      test_mutation_drop_gang_sibling_caught;
    Alcotest.test_case "cluster spec JSON round-trips with back-compat"
      `Quick test_cluster_spec_json;
    Alcotest.test_case "cluster spec validation" `Quick
      test_cluster_spec_validation;
    Alcotest.test_case "spec parsing rejects unknown names" `Quick
      test_spec_rejects_unknown_names;
    Alcotest.test_case "planted double-place is caught and shrunk" `Slow
      test_mutation_double_place_caught;
    Alcotest.test_case "timed-out case reported with its seed" `Quick
      test_timeout_reported_with_seed;
    Alcotest.test_case "committed corpus replays clean" `Slow
      test_corpus_replays;
    Alcotest.test_case "committed corpus re-saves byte-identical" `Quick
      test_corpus_round_trips;
  ]
