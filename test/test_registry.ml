(* Run registry (lib/registry): record JSON round-trips, canonical
   digest stability under field reordering, the compare verdict
   engine's gates (regress / improve / neutral, strict sections),
   directory save/load/list/resolve, and the self-contained HTML
   report. *)

open Asman
module Json = Sim_obs.Json
module Record = Sim_registry.Record
module Registry = Sim_registry.Registry
module Compare = Sim_registry.Compare
module Html = Sim_registry.Html

(* ----- builders ----- *)

let run_row (rid, w) =
  Json.Obj [ ("id", Json.String rid); ("wall_sec", Json.Float w) ]

let micro_row (bench, backend, pending, rate) =
  Json.Obj
    [
      ("bench", Json.String bench);
      ("backend", Json.String backend);
      ("pending", Json.Float pending);
      ("ops_per_sec", Json.Float rate);
    ]

let fairness_row (fid, ratio) =
  Json.Obj [ ("id", Json.String fid); ("ratio", Json.Float ratio) ]

let check_row (cid, v) =
  Json.Obj [ ("id", Json.String cid); ("value", Json.Float v) ]

let cluster_row = check_row

(* A bench-kind record with the given metric sections; a section
   passed as [] is omitted entirely (matters for strict-sections). *)
let mk ~id ?(date = "2026-08-07T00:00:00") ?(wall = 10.) ?(runs = [])
    ?(micro = []) ?(fairness = []) ?(check = []) ?(cluster = []) () =
  let sec name row = function
    | [] -> []
    | entries -> [ (name, Json.List (List.map row entries)) ]
  in
  let sections =
    Json.Obj
      (sec "runs" run_row runs
      @ sec "micro" micro_row micro
      @ sec "fairness" fairness_row fairness
      @ sec "check" check_row check
      @ sec "cluster" cluster_row cluster)
  in
  Record.make ~id ~kind:"bench" ~date ~git:(Some ("cafe01", false)) ~seed:42L
    ~scale:1. ~queue:"wheel" ~workers:2 ~label:id
    ~spec:(Json.Obj [ ("id", Json.String id) ])
    ~wall_sec:wall ~sections ()

let compare_t ?(strict = false) old_r new_r =
  Compare.records { Compare.default with Compare.strict_sections = strict }
    old_r new_r

(* ----- record round-trip ----- *)

let test_round_trip () =
  let r =
    Record.make ~id:"r1" ~kind:"theft" ~date:"2026-08-07T10:00:00"
      ~git:(Some ("abc123", true)) ~seed:123456789L ~scale:0.5 ~queue:"heap"
      ~workers:4 ~sim_jobs:2 ~topology:"8x16" ~numa:true ~accounting:"sampled"
      ~chaos:"ipi-loss-5" ~label:"bench theft"
      ~spec:(Json.Obj [ ("ids", Json.List [ Json.String "theft" ]) ])
      ~wall_sec:12.5 ~busy_sec:40.25
      ~sections:
        (Json.Obj
           [
             ( "runs",
               Json.of_string
                 {|[{"id":"theft","wall_sec":1.5,"busy_sec":3.0,"jobs":2,"workers":2,"speedup":2.0,"job_sec":[0.5,2.5]}]|}
             );
             ("micro", Json.List []);
             ( "profile",
               Json.of_string
                 {|[{"label":"run.theft","total_sec":1.5,"calls":1}]|} );
           ])
      ~metrics:[ ("events", 100.); ("vm.V1.rounds", 3.) ]
      ~exports:[ "trace.json"; "metrics.json" ]
      ()
  in
  let r' =
    Record.of_json
      (Json.of_string (Json.to_string ~indent:true (Record.to_json r)))
  in
  (* Bench-shaped sections: the per-job seconds and the profile
     survive alongside what compare reads. *)
  Alcotest.(check bool) "record round-trips exactly" true (r = r')

let test_round_trip_wide_seed () =
  (* Int64.max_int does not fit an OCaml int, so the seed serializes
     as a decimal string; it must still round-trip exactly. *)
  let r =
    Record.make ~id:"r2" ~kind:"run" ~date:"2026-08-07T10:00:00" ~git:None
      ~seed:Int64.max_int ~scale:1. ~queue:"wheel" ~workers:1 ~label:"x"
      ~spec:Json.Null ~wall_sec:0.1 ()
  in
  let r' = Record.of_json (Json.of_string (Json.to_string (Record.to_json r))) in
  Alcotest.(check int64) "wide seed survives" Int64.max_int r'.Record.seed;
  Alcotest.(check bool) "no git info round-trips" true
    (r'.Record.git_sha = None)

(* ----- canonical digest ----- *)

let test_digest_reorder_stable () =
  let a = Json.of_string {|{"b":1,"a":[{"y":2.5,"x":"s"}],"c":null}|} in
  let b = Json.of_string {|{"c":null,"a":[{"x":"s","y":2.5}],"b":1}|} in
  Alcotest.(check string)
    "field order does not change the digest"
    (Record.canonical_digest a) (Record.canonical_digest b);
  let c = Json.of_string {|{"c":null,"a":[{"x":"s","y":2.5}],"b":2}|} in
  Alcotest.(check bool)
    "a value change does" true
    (Record.canonical_digest a <> Record.canonical_digest c);
  (* The JSON printer writes 0.2 short; the digest still hashes the
     %.17g text specs were first digested in. *)
  Alcotest.(check string)
    "floats digest in their %.17g form" "880ed6cdb7ed7dbe38606245d5821169"
    (Record.canonical_digest
       (Json.Obj
          [ ("scale", Json.Float 1.); ("rounds", Json.Int 2);
            ("max_sec", Json.Float 0.2) ]))

let test_digest_list_order_matters () =
  (* Lists are ordered data (e.g. VM lists): reordering them is a
     different spec, unlike object fields. *)
  let a = Json.of_string {|{"vms":["a","b"]}|} in
  let b = Json.of_string {|{"vms":["b","a"]}|} in
  Alcotest.(check bool) "list order is significant" true
    (Record.canonical_digest a <> Record.canonical_digest b)

(* ----- compare: verdict gates ----- *)

let test_compare_wall_regression () =
  let old_r = mk ~id:"old" ~runs:[ ("fig7", 1.0) ] () in
  let slow = mk ~id:"new" ~runs:[ ("fig7", 1.4) ] () in
  let ok = mk ~id:"new" ~runs:[ ("fig7", 1.1) ] () in
  let fast = mk ~id:"new" ~runs:[ ("fig7", 0.5) ] () in
  Alcotest.(check int) "+40% wall regresses" 1
    (compare_t old_r slow).Compare.regressions;
  Alcotest.(check int) "+10% wall is neutral" 0
    (compare_t old_r ok).Compare.regressions;
  Alcotest.(check int) "an improvement never gates" 0
    (compare_t old_r fast).Compare.regressions

let test_compare_min_wall_exemption () =
  (* Old run under min_wall (0.25 s): doubled wall time is still
     scheduler noise, reported but not gated. *)
  let old_r = mk ~id:"old" ~runs:[ ("fig1b", 0.1) ] () in
  let new_r = mk ~id:"new" ~runs:[ ("fig1b", 0.2) ] () in
  let r = compare_t old_r new_r in
  Alcotest.(check int) "too short to gate" 0 r.Compare.regressions;
  Alcotest.(check bool) "but still reported" true
    (let rec contains_sub h n i =
       i + String.length n <= String.length h
       && (String.sub h i (String.length n) = n || contains_sub h n (i + 1))
     in
     contains_sub r.Compare.text "ungated" 0)

let test_compare_micro_direction () =
  (* Micro gates on throughput SHRINK; wall gates on GROWTH. *)
  let old_r = mk ~id:"old" ~micro:[ ("hold", "wheel", 1e6, 1000.) ] () in
  let slow = mk ~id:"new" ~micro:[ ("hold", "wheel", 1e6, 600.) ] () in
  let fast = mk ~id:"new" ~micro:[ ("hold", "wheel", 1e6, 2000.) ] () in
  Alcotest.(check int) "-40% throughput regresses" 1
    (compare_t old_r slow).Compare.regressions;
  Alcotest.(check int) "+100% throughput is fine" 0
    (compare_t old_r fast).Compare.regressions

let test_compare_fairness_symmetric () =
  let old_r = mk ~id:"old" ~fairness:[ ("V1 steal", 1.0) ] () in
  let up = mk ~id:"new" ~fairness:[ ("V1 steal", 1.06) ] () in
  let down = mk ~id:"new" ~fairness:[ ("V1 steal", 0.94) ] () in
  let close = mk ~id:"new" ~fairness:[ ("V1 steal", 1.02) ] () in
  Alcotest.(check int) "+6% drift regresses" 1
    (compare_t old_r up).Compare.regressions;
  Alcotest.(check int) "-6% drift regresses too (symmetric)" 1
    (compare_t old_r down).Compare.regressions;
  Alcotest.(check int) "+2% drift is within tolerance" 0
    (compare_t old_r close).Compare.regressions

let test_compare_check_counts () =
  let old_r =
    mk ~id:"old" ~check:[ ("cases", 100.); ("failures", 0.); ("timeouts", 0.) ]
      ()
  in
  let broke =
    mk ~id:"new" ~check:[ ("cases", 100.); ("failures", 1.); ("timeouts", 0.) ]
      ()
  in
  let fixed =
    mk ~id:"new" ~check:[ ("cases", 50.); ("failures", 0.); ("timeouts", 0.) ]
      ()
  in
  Alcotest.(check int) "one new failure regresses (absolute, not %)" 1
    (compare_t old_r broke).Compare.regressions;
  Alcotest.(check int) "fewer cases / zero failures does not gate" 0
    (compare_t old_r fixed).Compare.regressions

let test_compare_cluster_drift () =
  (* Cluster runs are seeded and deterministic: density/p99 entries
     gate symmetrically like fairness ratios; migration counters are
     informational only. *)
  let old_r =
    mk ~id:"old"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 3.2);
          ("p99_stall_ms", 12.0);
          ("migrations", 5.);
        ]
      ()
  in
  let extract r =
    mk ~id:"x" ~cluster:r () |> fun rec_ -> Compare.values_of "cluster" rec_
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "cluster section round-trips through the extractor"
    [
      ("density asman/lifetime L1.5", 3.2);
      ("p99_stall_ms", 12.0);
      ("migrations", 5.);
    ]
    (extract
       [
         ("density asman/lifetime L1.5", 3.2);
         ("p99_stall_ms", 12.0);
         ("migrations", 5.);
       ]);
  let denser =
    mk ~id:"new"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 3.5);
          ("p99_stall_ms", 12.0);
          ("migrations", 5.);
        ]
      ()
  in
  let sparser =
    mk ~id:"new"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 2.9);
          ("p99_stall_ms", 12.0);
          ("migrations", 5.);
        ]
      ()
  in
  let slower_tail =
    mk ~id:"new"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 3.2);
          ("p99_stall_ms", 14.0);
          ("migrations", 5.);
        ]
      ()
  in
  let more_migrations =
    mk ~id:"new"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 3.2);
          ("p99_stall_ms", 12.0);
          ("migrations", 50.);
        ]
      ()
  in
  let close =
    mk ~id:"new"
      ~cluster:
        [
          ("density asman/lifetime L1.5", 3.25);
          ("p99_stall_ms", 12.1);
          ("migrations", 5.);
        ]
      ()
  in
  Alcotest.(check int) "+9% density regresses" 1
    (compare_t old_r denser).Compare.regressions;
  Alcotest.(check int) "-9% density regresses too (symmetric)" 1
    (compare_t old_r sparser).Compare.regressions;
  Alcotest.(check int) "+17% p99 stall regresses" 1
    (compare_t old_r slower_tail).Compare.regressions;
  Alcotest.(check int) "migration counters never gate" 0
    (compare_t old_r more_migrations).Compare.regressions;
  Alcotest.(check int) "sub-threshold drift is neutral" 0
    (compare_t old_r close).Compare.regressions

let test_compare_strict_sections () =
  let old_r =
    mk ~id:"old" ~runs:[ ("fig7", 1.0) ] ~fairness:[ ("V1 steal", 1.0) ] ()
  in
  let new_r = mk ~id:"new" ~runs:[ ("fig7", 1.0) ] () in
  Alcotest.(check int) "lax: a vanished section only reports" 0
    (compare_t old_r new_r).Compare.regressions;
  Alcotest.(check int) "strict: a vanished section regresses" 1
    (compare_t ~strict:true old_r new_r).Compare.regressions;
  (* A section appearing is growth, not a regression, even strictly. *)
  Alcotest.(check int) "strict: a new section never gates" 0
    (compare_t ~strict:true new_r old_r).Compare.regressions

let test_compare_one_sided_entries () =
  let old_r = mk ~id:"old" ~runs:[ ("fig7", 1.0) ] () in
  let new_r = mk ~id:"new" ~runs:[ ("fig7", 1.0); ("fig13", 99.0) ] () in
  Alcotest.(check int) "entries on one side only never gate" 0
    (compare_t ~strict:true old_r new_r).Compare.regressions

(* Records taken on different axes measure different things; the
   queue backend is the one axis a comparison may cross. *)
let test_compare_axes () =
  let base = { (mk ~id:"old" ()) with Record.topology = "2x4" } in
  let other =
    { base with Record.id = "new"; seed = 7L; workers = 4; topology = "4x16" }
  in
  Alcotest.(check (list string)) "differing axes are named"
    [ "seed 42 vs 7"; "workers 2 vs 4"; "topology 2x4 vs 4x16" ]
    (Compare.axis_mismatches base other);
  Alcotest.(check (list string)) "queue backend is not an axis" []
    (Compare.axis_mismatches base { base with Record.queue = "heap" });
  Alcotest.(check (list string)) "an unstamped topology matches" []
    (Compare.axis_mismatches { base with Record.topology = "" } base)

(* ----- save / load / list / resolve ----- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "asman-registry-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_save_load_list_resolve () =
  with_temp_dir (fun dir ->
      let r1 = mk ~id:"b-one" ~date:"2026-08-06T00:00:00" ~runs:[ ("fig7", 1.) ] () in
      let r2 = mk ~id:"a-two" ~date:"2026-08-07T00:00:00" ~runs:[ ("fig7", 2.) ] () in
      let p1 = Registry.save ~dir r1 in
      let (_ : string) = Registry.save ~dir r2 in
      Alcotest.(check bool) "saved under <dir>/<id>.json" true
        (Filename.basename p1 = "b-one.json");
      let r1' = Registry.load p1 in
      Alcotest.(check bool) "load round-trips" true (r1 = r1');
      (* A non-record file in the directory must be skipped, not fatal. *)
      let oc = open_out (Filename.concat dir "notes.txt") in
      output_string oc "fig7 rerun at -j 4\n";
      close_out oc;
      let listed = Registry.list ~dir () in
      Alcotest.(check (list string))
        "list sorts by (date, id) and skips non-records"
        [ "b-one"; "a-two" ]
        (List.map (fun (r : Record.t) -> r.Record.id) listed);
      (* Resolution: bare id, record path; any other JSON is refused. *)
      let by_id = Registry.resolve ~dir "a-two" in
      Alcotest.(check bool) "resolve by id" true (by_id = r2);
      let by_path = Registry.resolve ~dir p1 in
      Alcotest.(check bool) "resolve by path" true (by_path = r1);
      let other = Filename.concat dir "not-a-record.json" in
      let oc = open_out other in
      output_string oc {|{"date":"2026-08-06","runs":[]}|};
      close_out oc;
      match Registry.resolve ~dir other with
      | _ -> Alcotest.fail "a non-record JSON file resolved"
      | exception Json.Parse_error _ -> ())

(* ----- HTML report ----- *)

let report_records () =
  [
    mk ~id:"run-1" ~date:"2026-08-05T00:00:00" ~wall:10.
      ~runs:[ ("fig7", 1.0); ("fig10", 5.0) ]
      ~micro:[ ("hold", "wheel", 1e6, 1.5e6) ]
      ~fairness:[ ("V1 steal", 1.0) ]
      ~check:[ ("cases", 100.); ("failures", 0.) ]
      ~cluster:[ ("density asman/lifetime L1.5", 3.2); ("p99_stall_ms", 12.0) ]
      ();
    mk ~id:"run-2" ~date:"2026-08-06T00:00:00" ~wall:11.
      ~runs:[ ("fig7", 1.1); ("fig10", 5.2) ]
      ~micro:[ ("hold", "wheel", 1e6, 1.4e6) ]
      ~fairness:[ ("V1 steal", 1.01) ]
      ~check:[ ("cases", 100.); ("failures", 0.) ]
      ~cluster:[ ("density asman/lifetime L1.5", 3.3); ("p99_stall_ms", 11.8) ]
      ();
  ]

let contains h n =
  let rec go i =
    i + String.length n <= String.length h
    && (String.sub h i (String.length n) = n || go (i + 1))
  in
  go 0

let test_html_well_formed_and_self_contained () =
  let html = Html.report (report_records ()) in
  (match Html.validate_html html with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("report not well-formed: " ^ msg));
  (* >= 3 metric families actually rendered for these records. *)
  List.iter
    (fun fam ->
      Alcotest.(check bool) (fam ^ " family present") true (contains html fam))
    [
      "Figure / ablation wall time";
      "Micro throughput";
      "Fairness: attained / entitled";
      "SimCheck health";
      "Cluster consolidation";
    ];
  Alcotest.(check bool) "inline SVG" true (contains html "<svg")

let test_html_deterministic_across_workers () =
  let records = report_records () in
  let saved = Pool.jobs () in
  Pool.set_jobs 1;
  let at1 = Html.report records in
  Pool.set_jobs 4;
  let at4 = Html.report records in
  Pool.set_jobs saved;
  Alcotest.(check bool) "byte-identical at -j1 and -j4" true (at1 = at4);
  Alcotest.(check bool) "byte-identical across renders" true
    (at1 = Html.report records)

let suite =
  [
    Alcotest.test_case "record round-trip" `Quick test_round_trip;
    Alcotest.test_case "wide-seed round-trip" `Quick test_round_trip_wide_seed;
    Alcotest.test_case "digest: field order" `Quick test_digest_reorder_stable;
    Alcotest.test_case "digest: list order" `Quick
      test_digest_list_order_matters;
    Alcotest.test_case "compare: wall gates" `Quick
      test_compare_wall_regression;
    Alcotest.test_case "compare: min-wall exemption" `Quick
      test_compare_min_wall_exemption;
    Alcotest.test_case "compare: micro direction" `Quick
      test_compare_micro_direction;
    Alcotest.test_case "compare: fairness symmetric" `Quick
      test_compare_fairness_symmetric;
    Alcotest.test_case "compare: check counts" `Quick
      test_compare_check_counts;
    Alcotest.test_case "compare: cluster drift" `Quick
      test_compare_cluster_drift;
    Alcotest.test_case "compare: strict sections" `Quick
      test_compare_strict_sections;
    Alcotest.test_case "compare: one-sided entries" `Quick
      test_compare_one_sided_entries;
    Alcotest.test_case "compare: axes must match" `Quick test_compare_axes;
    Alcotest.test_case "save/load/list/resolve" `Quick
      test_save_load_list_resolve;
    Alcotest.test_case "html report: self-contained" `Quick
      test_html_well_formed_and_self_contained;
    Alcotest.test_case "html report: deterministic" `Quick
      test_html_deterministic_across_workers;
  ]
