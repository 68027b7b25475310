(* Observability layer: ring semantics, trace masks, exporters, the
   JSON reader's strictness, metrics snapshot determinism across Pool
   worker counts, and the LHP classifier on a hand-built scenario. *)

open Asman
module Ring = Sim_obs.Ring
module Trace = Sim_obs.Trace
module Metrics = Sim_obs.Metrics
module Json = Sim_obs.Json

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
  (* A label with a quote and a newline: names must be escaped. *)
  let doc =
    Obs_hub.chrome_json
      [
        {
          Obs_hub.label = "asman \"V1\"\nseed 42";
          freq_khz = 2_330_000;
          pcpus = 2;
          vm_names = [ (1, "V1") ];
          trace = sample_trace ();
          metrics = Metrics.create ();
        };
      ]
  in
  (match Json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome export: " ^ e));
  match Json.member "traceEvents" (Json.of_string doc) with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no traceEvents"

(* ----- the JSON reader ----- *)

let test_json_reader_strict () =
  List.iter
    (fun (what, doc) ->
      (match Json.of_string doc with
      | _ -> Alcotest.failf "of_string accepted %s: %S" what doc
      | exception Json.Parse_error _ -> ());
      Alcotest.(check bool) ("validate refuses " ^ what) true
        (Result.is_error (Json.validate doc)))
    [
      ("a raw newline in a string", "\"a\nb\"");
      ("a \\u escape with a non-hex digit", {|"\u00_1"|});
      ("a trailing comma", "[1,]");
      ("a missing colon", {|{"a" 1}|});
      ("trailing garbage", "{} x");
    ];
  Alcotest.(check string) "\\u escapes decode to UTF-8" "A\xc3\x89"
    (Json.to_string_v (Json.of_string {|"\u0041\u00C9"|}))

(* ----- JSON floats: shortest form, exact round-trip ----- *)

let test_json_float_short () =
  List.iter
    (fun (f, s) ->
      Alcotest.(check string) (Printf.sprintf "%h prints" f) s
        (Json.to_string (Json.Float f)))
    [
      (0.05, "0.05"); (0.2, "0.2"); (3., "3.0"); (-0., "-0.0"); (1e300, "1e+300");
      (0.1 +. 0.2, "0.30000000000000004");
      (* integral beyond 1e15: still a float when read back *)
      (9007199254740992., "9007199254740992.0");
    ]

let bits_after_round_trip f =
  match Json.of_string (Json.to_string (Json.Float f)) with
  | Json.Float g -> Some (Int64.bits_of_float g)
  | _ -> None

let prop_json_float_round_trip =
  QCheck.Test.make ~count:2000 ~name:"random finite doubles round-trip exactly"
    QCheck.int64
    (fun bits ->
      let f = Int64.float_of_bits bits in
      QCheck.assume (Float.is_finite f);
      bits_after_round_trip f = Some (Int64.bits_of_float f))

(* ----- Obs_hub: the publish decision, unique labels, stable order ----- *)

let hub_entry label value =
  let metrics = Metrics.create () in
  Metrics.gauge metrics ~subsystem:"test" ~name:"value" (fun () -> value);
  { Obs_hub.label; freq_khz = 1; pcpus = 1; vm_names = []; trace = Trace.create ();
    metrics }

let test_hub_drain_order_free () =
  ignore (Obs_hub.drain ());
  let drained order =
    List.iter (fun (l, v) -> Obs_hub.register (hub_entry l v)) order;
    Obs_hub.drain ()
  in
  let order = [ ("b", 3); ("a", 9); ("b", 1); ("b", 2) ] in
  let es = drained order in
  Alcotest.(check (list (pair string int)))
    "equal labels numbered in content order"
    [ ("a", 9); ("b", 1); ("b#2", 2); ("b#3", 3) ]
    (List.map
       (fun (e : Obs_hub.entry) ->
         ( e.Obs_hub.label,
           Metrics.get (Metrics.snapshot e.Obs_hub.metrics) ~subsystem:"test"
             ~name:"value" () ))
       es);
  List.iter
    (fun o ->
      Alcotest.(check string) "same export in any publication order"
        (Obs_hub.metrics_json es) (Obs_hub.metrics_json (drained o)))
    [ List.rev order; [ ("b", 2); ("b", 1); ("a", 9); ("b", 3) ] ]

(* A trace armed without [metrics] stays private to its scenario (the
   SimCheck oracles read their own); [metrics] alone publishes, under
   a label naming the scheduler, each VM's workload and weight, and
   the seed. *)
let test_hub_publishes_on_metrics_only () =
  ignore (Obs_hub.drain ());
  let build obs =
    let config =
      { (Config.with_seed (Config.with_scale Config.default 0.02) 5L) with
        Config.obs }
    in
    ignore
      (Experiments.single_vm_scenario config ~sched:Config.Credit ~weight:32
         ~workload:(Experiments.nas_workload config Sim_workloads.Nas.LU))
  in
  build { Config.obs_off with Config.trace_mask = Trace.all_mask; trace_cap = 64 };
  Alcotest.(check int) "traced, metrics off: not published" 0
    (List.length (Obs_hub.drain ()));
  build { Config.obs_off with Config.metrics = true };
  Alcotest.(check (list string)) "metrics on: published"
    [ "credit/V1(LU,w32)/seed5" ]
    (List.map (fun (e : Obs_hub.entry) -> e.Obs_hub.label) (Obs_hub.drain ()))

(* fig1a and ablate-stagger publish every run they simulate; each pass
   gets its own config value so the second simulates its points again
   rather than reading the first's (Experiments shares them per
   value). *)
let published ~jobs =
  ignore (Obs_hub.drain ());
  let saved = Pool.jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  let config =
    {
      (Config.with_seed (Config.with_scale Config.default 0.02) 5L) with
      Config.obs =
        {
          Config.obs_off with
          Config.metrics = true;
          trace_mask = Trace.cat_bit Trace.Sched;
          trace_cap = 4096;
        };
    }
  in
  List.iter
    (fun (e : Experiments.t) ->
      if List.mem e.Experiments.id [ "fig1a"; "ablate-stagger" ] then
        ignore (e.Experiments.run config))
    (Experiments.all @ Ablations.all);
  Obs_hub.drain ()

let test_hub_exports_across_workers () =
  let at1 = published ~jobs:1 and at4 = published ~jobs:4 in
  let labels = List.map (fun (e : Obs_hub.entry) -> e.Obs_hub.label) at1 in
  Alcotest.(check int) "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ " names its weight") true
        (List.mem (Printf.sprintf "credit/V1(LU,w%s)/seed5" w) labels))
    [ "32"; "64"; "128"; "256" ];
  Alcotest.(check bool) "a variant of ablate-stagger numbered" true
    (List.exists (fun l -> String.ends_with ~suffix:"#2" l) labels);
  Alcotest.(check string) "metrics export at -j1 and -j4"
    (Obs_hub.metrics_json at1) (Obs_hub.metrics_json at4);
  Alcotest.(check string) "trace export at -j1 and -j4"
    (Obs_hub.chrome_json at1) (Obs_hub.chrome_json at4)

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
  let snap = Metrics.snapshot m in
  let doc = Json.to_string (Metrics.to_json snap) in
  match Json.member "metrics" (Json.of_string doc) with
  | Some (Json.List samples) ->
    Alcotest.(check int) "one json object per sample" (List.length snap)
      (List.length samples)
  | _ -> Alcotest.fail ("metrics json: " ^ doc)

(* ----- metrics registry: keyed table ----- *)

(* Re-registering a key replaces its instrument, so re-arming an
   owner is idempotent: one sample per key, read from the last
   instrument. *)
let test_metrics_reregister_last_wins () =
  let m = Metrics.create () in
  let first = Metrics.counter m ~subsystem:"faults" ~name:"drops" () in
  let last = Metrics.counter m ~subsystem:"faults" ~name:"drops" () in
  Metrics.incr first ~by:3;
  Metrics.incr last ~by:5;
  Metrics.gauge m ~subsystem:"faults" ~vm:"V1" ~name:"stalls" (fun () -> 1);
  Metrics.gauge m ~subsystem:"faults" ~vm:"V1" ~name:"stalls" (fun () -> 2);
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "one sample per key" 2 (List.length snap);
  Alcotest.(check int) "counter: the last instrument" 5
    (Metrics.get snap ~subsystem:"faults" ~name:"drops" ());
  Alcotest.(check int) "gauge: the last instrument" 2
    (Metrics.get snap ~subsystem:"faults" ~vm:"V1" ~name:"stalls" ())

(* (subsystem, name, vm) triples with shared prefixes and both vm
   forms, so every level of the key order is exercised. *)
let registry_keys =
  List.concat_map
    (fun subsystem ->
      List.concat_map
        (fun name -> [ (subsystem, name, None); (subsystem, name, Some "V2");
                       (subsystem, name, Some "V10") ])
        [ "b"; "a"; "ab" ])
    [ "vmm"; "guest"; "engine" ]

let shuffled seed l =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let test_metrics_snapshot_order_free () =
  (* Each key's gauge value is a function of the key, not of the
     registration order, so all snapshots must agree. *)
  let snap_of keys =
    let m = Metrics.create () in
    List.iter
      (fun ((subsystem, name, vm) as k) ->
        let v = Hashtbl.hash k in
        Metrics.gauge m ~subsystem ?vm ~name (fun () -> v))
      keys;
    Metrics.to_text (Metrics.snapshot m)
  in
  let expected = snap_of registry_keys in
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "shuffle %d gives the same snapshot" seed)
        expected (snap_of (shuffled seed registry_keys)))
    [ 1; 2; 3 ];
  Alcotest.(check string) "reversed gives the same snapshot" expected
    (snap_of (List.rev registry_keys));
  let names =
    List.map
      (fun line -> List.hd (String.split_on_char ' ' line))
      (String.split_on_char '\n' expected)
  in
  Alcotest.(check (list string)) "vm-less key first, then by vm"
    [ "engine/a"; "engine/a{vm=V10}"; "engine/a{vm=V2}" ]
    (List.filteri (fun i _ -> i < 3) names)

let test_metrics_diff_merge () =
  (* [base] lacks some of [snap]'s keys and holds some [snap] lacks;
     the merge must agree with a per-sample lookup. *)
  let keys = shuffled 7 registry_keys in
  let base_m = Metrics.create () and snap_m = Metrics.create () in
  List.iteri
    (fun i (subsystem, name, vm) ->
      if i mod 3 <> 0 then
        Metrics.gauge base_m ~subsystem ?vm ~name (fun () -> i);
      if i mod 4 <> 1 then
        Metrics.gauge snap_m ~subsystem ?vm ~name (fun () -> 100 * i))
    keys;
  let base = Metrics.snapshot base_m and snap = Metrics.snapshot snap_m in
  let d = Metrics.diff ~base snap in
  Alcotest.(check int) "one sample per snap sample" (List.length snap)
    (List.length d);
  List.iter2
    (fun (s : Metrics.sample) (ds : Metrics.sample) ->
      let k = s.Metrics.key in
      let subsystem = k.Metrics.subsystem and name = k.Metrics.name in
      let vm = k.Metrics.vm in
      let v = Metrics.get [ s ] ~subsystem ?vm ~name () in
      let expected =
        match Metrics.find base ~subsystem ?vm ~name () with
        | Some b -> v - b
        | None -> v
      in
      Alcotest.(check string) "same key" (Metrics.key_to_string k)
        (Metrics.key_to_string ds.Metrics.key);
      Alcotest.(check int) (Metrics.key_to_string k) expected
        (Metrics.get [ ds ] ~subsystem ?vm ~name ()))
    snap d

(* The keyed table takes 12.2 minor words per registration (the
   counter, its key, the instrument and the table's bucket cell). A
   registry that copies an association list on every registration
   takes about 6,000 words per key at this size, so the bound of 200
   fails on a return to quadratic registration. *)
let test_metrics_register_alloc () =
  let n = 4000 in
  let names = Array.init n (fun i -> Printf.sprintf "c%d" i) in
  let m = Metrics.create () in
  let before = Gc.minor_words () in
  Array.iter
    (fun name -> ignore (Metrics.counter m ~subsystem:"alloc" ~name ()))
    names;
  let per_key = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per registration (bound 200)" per_key)
    true (per_key < 200.);
  Alcotest.(check int) "all registered" n
    (List.length (Metrics.snapshot m))

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
    Alcotest.test_case "json reader is strict" `Quick test_json_reader_strict;
    Alcotest.test_case "json floats print short" `Quick test_json_float_short;
    QCheck_alcotest.to_alcotest prop_json_float_round_trip;
    Alcotest.test_case "hub drain is order-free" `Quick test_hub_drain_order_free;
    Alcotest.test_case "hub publishes on metrics only" `Quick
      test_hub_publishes_on_metrics_only;
    Alcotest.test_case "hub exports identical at -j1 and -j4" `Slow
      test_hub_exports_across_workers;
    Alcotest.test_case "metrics snapshots identical at -j1 and -j4" `Slow
      test_snapshot_determinism_across_jobs;
    Alcotest.test_case "LHP golden classification" `Quick
      test_lhp_classification;
    Alcotest.test_case "LHP sibling heuristic for unknown holder" `Quick
      test_lhp_unknown_holder_uses_sibling;
    Alcotest.test_case "metrics diff and lookup" `Quick
      test_metrics_diff_and_lookup;
    Alcotest.test_case "metrics re-registration keeps the last" `Quick
      test_metrics_reregister_last_wins;
    Alcotest.test_case "metrics snapshot ignores registration order" `Quick
      test_metrics_snapshot_order_free;
    Alcotest.test_case "metrics diff merges sorted snapshots" `Quick
      test_metrics_diff_merge;
    Alcotest.test_case "metrics registration allocation" `Quick
      test_metrics_register_alloc;
  ]
