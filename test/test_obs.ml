(* Observability layer: ring semantics, trace masks, exporters,
   metrics snapshot determinism across Pool worker counts, and the
   LHP classifier on a hand-built scenario. *)

open Asman
module Ring = Sim_obs.Ring
module Trace = Sim_obs.Trace
module Metrics = Sim_obs.Metrics

(* ----- ring buffer ----- *)

let test_ring_wrap_and_drop () =
  let r = Ring.create ~cap:4 in
  for i = 1 to 4 do
    Ring.push r i
  done;
  Alcotest.(check int) "full, nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4 ] (Ring.to_list r);
  Ring.push r 5;
  Ring.push r 6;
  Alcotest.(check int) "two overwritten" 2 (Ring.dropped r);
  Alcotest.(check (list int)) "newest survive" [ 3; 4; 5; 6 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "drop tally is lifetime" 2 (Ring.dropped r)

let test_ring_zero_cap () =
  let r = Ring.create ~cap:0 in
  Ring.push r 1;
  Alcotest.(check (list int)) "keeps nothing" [] (Ring.to_list r);
  Alcotest.(check int) "counts the drop" 1 (Ring.dropped r)

(* ----- trace masks ----- *)

let test_trace_mask_gating () =
  let tr = Trace.create () in
  List.iter
    (fun c -> Alcotest.(check bool) "disabled" false (Trace.on tr c))
    Trace.categories;
  Trace.enable tr ~mask:(Trace.cat_bit Trace.Sched);
  Alcotest.(check bool) "sched on" true (Trace.on tr Trace.Sched);
  Alcotest.(check bool) "gang off" false (Trace.on tr Trace.Gang);
  (* Call-site discipline: emit only under the guard, so a masked
     category contributes no entries. *)
  let emit_guarded cat ev =
    if Trace.on tr cat then Trace.emit tr ~now:10 ev
  in
  emit_guarded Trace.Sched (Trace.Sched_idle { pcpu = 0 });
  emit_guarded Trace.Gang (Trace.Gang_ack { domain = 1; pcpu = 0 });
  Alcotest.(check int) "only sched recorded" 1 (Trace.length tr)

let test_mask_of_string () =
  (match Trace.mask_of_string "all" with
  | Ok m -> Alcotest.(check int) "all" Trace.all_mask m
  | Error e -> Alcotest.fail e);
  (match Trace.mask_of_string "sched,gang" with
  | Ok m ->
    Alcotest.(check int) "two cats"
      (Trace.cat_bit Trace.Sched lor Trace.cat_bit Trace.Gang)
      m
  | Error e -> Alcotest.fail e);
  match Trace.mask_of_string "sched,bogus" with
  | Ok _ -> Alcotest.fail "accepted unknown category"
  | Error _ -> ()

(* ----- exporters ----- *)

let sample_trace () =
  let tr = Trace.create () in
  Trace.enable tr ~mask:Trace.all_mask;
  Trace.emit tr ~now:0 (Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 });
  Trace.emit tr ~now:0 (Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 });
  Trace.emit tr ~now:500 (Trace.Credit_account { vcpu = 0; domain = 1; credit = 90; burned = 10 });
  Trace.emit tr ~now:900 (Trace.Gang_launch { domain = 1; pcpu = 0; ipis = 3; retry = false });
  Trace.emit tr ~now:1_000 (Trace.Sched_idle { pcpu = 1 });
  Trace.emit tr ~now:1_200
    (Trace.Spin_overthreshold { domain = 1; vcpu = 0; lock_id = 7; wait = 400; holder = 1 });
  Trace.emit tr ~now:1_500 (Trace.Sched_block { pcpu = 0; vcpu = 0; domain = 1 });
  tr

let test_chrome_json_well_formed () =
  let tr = sample_trace () in
  let doc =
    Trace.to_chrome_json ~vm_names:[ (1, "V1") ] ~freq_hz:2_330_000_000
      ~pcpus:2 tr
  in
  (match Sim_obs.Json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome export: " ^ e));
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true
    (contains ~needle:"traceEvents" doc)

let test_jsonl_and_csv () =
  let tr = sample_trace () in
  let csv = Trace.to_csv tr in
  Alcotest.(check int) "csv rows = events + header" (Trace.length tr + 1)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  String.split_on_char '\n' (Trace.to_jsonl tr)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Sim_obs.Json.validate line with
         | Ok () -> ()
         | Error e -> Alcotest.fail (Printf.sprintf "jsonl %S: %s" line e))

(* ----- metrics snapshot determinism across worker counts ----- *)

let snapshot_of_seed seed =
  let config =
    Config.with_seed (Config.with_scale Config.default 0.02) (Int64.of_int seed)
  in
  let workload =
    Sim_workloads.Nas.workload
      (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq:(Config.freq config)
         ~scale:0.02)
  in
  let scenario =
    Scenario.build config ~sched:Config.Asman
      ~vms:
        [ { Scenario.vm_name = "V1"; weight = 256; vcpus = 4;
            workload = Some workload } ]
  in
  let (_ : Runner.metrics) = Runner.run_window scenario ~sec:0.05 in
  Metrics.to_text (Metrics.snapshot (Sim_vmm.Vmm.metrics scenario.Scenario.vmm))

let test_snapshot_determinism_across_jobs () =
  let seeds = [ 3; 4; 5; 6 ] in
  let sequential = Pool.map ~jobs:1 snapshot_of_seed seeds in
  let parallel = Pool.map ~jobs:4 snapshot_of_seed seeds in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d identical at -j1 and -j4" (List.nth seeds i))
        a b)
    (List.combine sequential parallel)

(* ----- LHP classification golden test ----- *)

(* Waiter (vcpu 0) runs on pcpu 0 throughout; holder (vcpu 1) runs on
   pcpu 1 but is descheduled during [100, 200]. The first wait spans
   [50, 300] and overlaps the gap for 100 cycles (40% >> 10%):
   preempted-holder. The second spans [290, 320] while the holder is
   back on-CPU: contended. *)
let lhp_entries =
  [
    { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 } };
    { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
    { Trace.at = 100; ev = Trace.Sched_idle { pcpu = 1 } };
    { Trace.at = 200; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
    {
      Trace.at = 300;
      ev =
        Trace.Spin_overthreshold
          { domain = 1; vcpu = 0; lock_id = 7; wait = 250; holder = 1 };
    };
    {
      Trace.at = 320;
      ev =
        Trace.Spin_overthreshold
          { domain = 1; vcpu = 0; lock_id = 8; wait = 30; holder = 1 };
    };
  ]

let test_lhp_classification () =
  let timeline = Sim_obs.Timeline.of_entries ~pcpus:2 lhp_entries in
  let report = Sim_obs.Lhp.classify ~timeline lhp_entries in
  Alcotest.(check int) "total" 2 report.Sim_obs.Lhp.total;
  Alcotest.(check int) "preempted" 1 report.Sim_obs.Lhp.preempted;
  Alcotest.(check int) "contended" 1 report.Sim_obs.Lhp.contended;
  Alcotest.(check (float 1e-9)) "share" 0.5 report.Sim_obs.Lhp.preempted_share;
  match report.Sim_obs.Lhp.by_domain with
  | [ (1, 1, 1) ] -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "by_domain: %s"
         (String.concat ";"
            (List.map (fun (d, p, c) -> Printf.sprintf "(%d,%d,%d)" d p c) other)))

let test_lhp_unknown_holder_uses_sibling () =
  (* Same timeline, but the wait does not know its holder (-1): the
     most-descheduled sibling VCPU of domain 1 (vcpu 1, off 100 of
     250 cycles) stands in, so it still classifies preempted. *)
  let entries =
    [
      { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 } };
      { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
      { Trace.at = 100; ev = Trace.Sched_idle { pcpu = 1 } };
      { Trace.at = 200; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
      {
        Trace.at = 300;
        ev =
          Trace.Spin_overthreshold
            { domain = 1; vcpu = 0; lock_id = 9; wait = 250; holder = -1 };
      };
    ]
  in
  let timeline = Sim_obs.Timeline.of_entries ~pcpus:2 entries in
  let report = Sim_obs.Lhp.classify ~timeline entries in
  Alcotest.(check int) "preempted via sibling" 1 report.Sim_obs.Lhp.preempted

(* ----- metrics registry basics ----- *)

let test_metrics_diff_and_lookup () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"test" ~name:"hits" () in
  let g = ref 7 in
  Metrics.gauge m ~subsystem:"test" ~name:"depth" (fun () -> !g);
  let per_vm = Metrics.counter m ~subsystem:"test" ~vm:"V1" ~name:"hits" () in
  Metrics.incr c;
  Metrics.incr c ~by:4;
  let base = Metrics.snapshot m in
  Metrics.incr c ~by:10;
  Metrics.incr per_vm ~by:2;
  g := 9;
  let d = Metrics.diff ~base (Metrics.snapshot m) in
  Alcotest.(check int) "counter diffed" 10
    (Metrics.get d ~subsystem:"test" ~name:"hits" ());
  Alcotest.(check int) "gauge diffed" 2
    (Metrics.get d ~subsystem:"test" ~name:"depth" ());
  Alcotest.(check int) "vm label distinct" 2
    (Metrics.get d ~subsystem:"test" ~vm:"V1" ~name:"hits" ());
  Alcotest.(check int) "absent key is 0" 0
    (Metrics.get d ~subsystem:"test" ~name:"missing" ());
  match Sim_obs.Json.validate (Metrics.to_json (Metrics.snapshot m)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("metrics json: " ^ e)

let suite =
  [
    Alcotest.test_case "ring wrap and drop accounting" `Quick
      test_ring_wrap_and_drop;
    Alcotest.test_case "zero-capacity ring" `Quick test_ring_zero_cap;
    Alcotest.test_case "trace mask gates emission" `Quick
      test_trace_mask_gating;
    Alcotest.test_case "category mask parsing" `Quick test_mask_of_string;
    Alcotest.test_case "chrome export is valid JSON" `Quick
      test_chrome_json_well_formed;
    Alcotest.test_case "csv/jsonl exports" `Quick test_jsonl_and_csv;
    Alcotest.test_case "metrics snapshots identical at -j1 and -j4" `Slow
      test_snapshot_determinism_across_jobs;
    Alcotest.test_case "LHP golden classification" `Quick
      test_lhp_classification;
    Alcotest.test_case "LHP sibling heuristic for unknown holder" `Quick
      test_lhp_unknown_holder_uses_sibling;
    Alcotest.test_case "metrics diff and lookup" `Quick
      test_metrics_diff_and_lookup;
  ]
