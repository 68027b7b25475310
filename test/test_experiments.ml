(* Smoke tests for the experiment registry and report rendering. The
   full figure regeneration lives in bench/; here we only check the
   registry's integrity and run the cheapest experiment end-to-end at
   a tiny scale. *)

open Asman

let test_registry () =
  let ids = Experiments.ids () in
  Alcotest.(check (list string)) "paper order"
    [ "fig1a"; "fig1b"; "fig2"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11a";
      "fig11b"; "fig12a"; "fig12b"; "theft"; "resilience" ]
    ids;
  List.iter
    (fun id ->
      match Experiments.find id with
      | Some e -> Alcotest.(check string) "id matches" id e.Experiments.id
      | None -> Alcotest.failf "missing %s" id)
    ids;
  Alcotest.(check bool) "unknown" true (Experiments.find "nope" = None)

let test_online_rate_points () =
  Alcotest.(check (list (pair int (float 0.1))))
    "equation 2 sweep"
    [ (256, 100.); (128, 66.7); (64, 40.); (32, 22.2) ]
    Experiments.online_rate_points

let tiny = Config.with_scale (Config.with_seed Config.default 5L) 0.03

let test_fig1a_tiny () =
  match Experiments.find "fig1a" with
  | None -> Alcotest.fail "fig1a missing"
  | Some e ->
    let o = e.Experiments.run tiny in
    Alcotest.(check int) "two measured series" 2
      (List.length o.Experiments.series);
    Alcotest.(check bool) "paper series present" true
      (o.Experiments.expected <> []);
    let runtime = List.hd o.Experiments.series in
    (* Monotone: lower online rate, longer run time. *)
    let ys =
      List.map snd
        (List.sort compare (Sim_stats.Series.points runtime))
    in
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a > b && decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "runtime decreases with online rate" true
      (decreasing ys)

let test_nas_runtime_helper () =
  let t =
    Experiments.nas_runtime tiny ~sched:Config.Credit
      ~bench:Sim_workloads.Nas.MG ~weight:256
  in
  Alcotest.(check bool) "positive" true (t > 0.)

let test_wait_bucket_counts () =
  let s =
    Scenario.build
      (Config.with_work_conserving tiny false)
      ~sched:Config.Credit
      ~vms:
        [
          {
            Scenario.vm_name = "V1";
            weight = 64;
            vcpus = 4;
            workload =
              Some
                (Sim_workloads.Nas.workload
                   (Sim_workloads.Nas.params Sim_workloads.Nas.LU
                      ~freq:(Config.freq tiny) ~scale:0.03));
          };
        ]
  in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:30. in
  let counts = Experiments.wait_bucket_counts (Runner.monitor_of s ~vm:"V1") in
  Alcotest.(check (list string)) "bands"
    [ ">=2^10"; ">=2^15"; ">=2^20"; ">=2^25" ]
    (List.map fst counts);
  (* Bands are nested: each is a superset of the next. *)
  let values = List.map snd counts in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "nested" true (non_increasing values)

let test_report_rendering () =
  match Experiments.find "fig1a" with
  | None -> Alcotest.fail "fig1a missing"
  | Some e ->
    let o = e.Experiments.run tiny in
    let text = Report.outcome e o in
    Alcotest.(check bool) "mentions id" true
      (String.length text > 0
      &&
      let rec find i =
        i + 5 <= String.length text
        && (String.sub text i 5 = "fig1a" || find (i + 1))
      in
      find 0);
    let csv = Report.series_csv o.Experiments.series in
    Alcotest.(check bool) "csv non-empty" true (String.length csv > 0)

(* Fig 2's locality note folds the monitor's traced-wait stream; pin
   it exactly so a change to the stream's order or filter shows. *)
let test_fig2_locality_note () =
  match Experiments.find "fig2" with
  | None -> Alcotest.fail "fig2 missing"
  | Some e ->
    let o =
      e.Experiments.run
        (Config.with_scale (Config.with_seed Config.default 42L) 0.05)
    in
    Alcotest.(check bool) "locality note" true
      (List.mem
         "locality: fraction of >=2^20 waits immediately preceded by \
          another: nan at 100%, 0.67 at 66.7%, 0.72 at 40%, 0.89 at 22.2%"
         o.Experiments.notes)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "online rate points" `Quick test_online_rate_points;
    Alcotest.test_case "fig1a tiny" `Slow test_fig1a_tiny;
    Alcotest.test_case "nas_runtime helper" `Quick test_nas_runtime_helper;
    Alcotest.test_case "wait buckets" `Quick test_wait_bucket_counts;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
    Alcotest.test_case "fig2 locality note" `Quick test_fig2_locality_note;
  ]
