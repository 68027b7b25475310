(* Tests for the Roth-Erev learner, the Algorithm 1/2 estimator, and
   the locality model. *)

open Sim_learn
open Sim_engine

(* ----- Roth_erev ----- *)

let candidates = [| 1.; 2.; 4.; 8. |]

let test_initial_propensities () =
  let t = Roth_erev.create Roth_erev.default_params ~candidates in
  (* q0 = s(0) * A / N with A = mean = 3.75, N = 4 *)
  Array.iter
    (fun q -> Alcotest.(check (float 1e-9)) "q0" (3.75 /. 4.) q)
    (Roth_erev.propensities t)

let test_select_best () =
  let t = Roth_erev.create Roth_erev.default_params ~candidates in
  Roth_erev.update t ~reinforcement:(fun j -> if j = 2 then 10. else 0.);
  Alcotest.(check int) "argmax" 2 (Roth_erev.select_best t)

let test_select_probabilistic_valid () =
  let t = Roth_erev.create Roth_erev.default_params ~candidates in
  let rng = Rng.create 3L in
  for _ = 1 to 200 do
    let j = Roth_erev.select_probabilistic t rng in
    if j < 0 || j >= 4 then Alcotest.fail "index out of range"
  done

let test_probabilistic_follows_mass () =
  let t = Roth_erev.create Roth_erev.default_params ~candidates in
  (* Put almost all mass on index 1. *)
  Roth_erev.update t ~reinforcement:(fun j -> if j = 1 then 1000. else 0.);
  let rng = Rng.create 17L in
  let hits = ref 0 in
  for _ = 1 to 200 do
    if Roth_erev.select_probabilistic t rng = 1 then incr hits
  done;
  Alcotest.(check bool) "mostly index 1" true (!hits > 190)

let test_update_recency_and_floor () =
  let params = { Roth_erev.default_params with Roth_erev.recency = 0.5 } in
  let t = Roth_erev.create params ~candidates in
  let q0 = (Roth_erev.propensities t).(0) in
  Roth_erev.update t ~reinforcement:(fun _ -> 0.);
  Alcotest.(check (float 1e-9)) "decay" (q0 /. 2.) (Roth_erev.propensity t 0);
  for _ = 1 to 200 do
    Roth_erev.update t ~reinforcement:(fun _ -> 0.)
  done;
  Alcotest.(check bool) "floored positive" true
    (Roth_erev.propensity t 0 >= params.Roth_erev.floor)

let test_update_sees_pre_update_state () =
  let t = Roth_erev.create Roth_erev.default_params ~candidates in
  let seen = ref [] in
  Roth_erev.update t ~reinforcement:(fun j ->
      seen := Roth_erev.propensity t j :: !seen;
      float_of_int j);
  (* All reinforcements computed against the same initial q. *)
  List.iter
    (fun q -> Alcotest.(check (float 1e-9)) "pre-update" (3.75 /. 4.) q)
    !seen

let test_params_validation () =
  let invalid p =
    try
      ignore (Roth_erev.create p ~candidates);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "recency >= 1" true
    (invalid { Roth_erev.default_params with Roth_erev.recency = 1.0 });
  Alcotest.(check bool) "negative experimentation" true
    (invalid { Roth_erev.default_params with Roth_erev.experimentation = -0.1 });
  Alcotest.(check bool) "empty candidates" true
    (try
       ignore (Roth_erev.create Roth_erev.default_params ~candidates:[||]);
       false
     with Invalid_argument _ -> true)

(* ----- Estimator ----- *)

let freq = Units.ghz_f 2.33

let slot = Units.cycles_of_ms freq 10

let make_estimator ?(seed = 1L) () =
  Estimator.create (Estimator.default_params ~slot_cycles:slot) (Rng.create seed)

let test_estimates_are_candidates () =
  let t = make_estimator () in
  let cands = Array.to_list (Estimator.candidates t) in
  let time = ref 0 in
  for _ = 1 to 50 do
    time := !time + (slot * 3);
    let x = Estimator.on_adjusting_event t ~now:!time in
    if not (List.mem x cands) then Alcotest.fail "estimate not a candidate"
  done;
  Alcotest.(check int) "events counted" 50 (Estimator.events_seen t)

let test_monotone_time_required () =
  let t = make_estimator () in
  ignore (Estimator.on_adjusting_event t ~now:1000);
  let raised =
    try
      ignore (Estimator.on_adjusting_event t ~now:500);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "time must not go backwards" true raised

(* Persistent under-coscheduling (the next over-threshold spinlock
   arrives right after every window) must push the estimate to longer
   durations — the core of Algorithm 2. *)
let test_under_coscheduling_grows_estimate () =
  let t = make_estimator () in
  let time = ref 0 in
  let last = ref 0 in
  for _ = 1 to 60 do
    let x = Estimator.on_adjusting_event t ~now:!time in
    last := x;
    (* Next event exactly at window end: slack 0 <= delta. *)
    time := !time + x
  done;
  let cands = Estimator.candidates t in
  Alcotest.(check int) "converged to longest candidate"
    cands.(Array.length cands - 1) !last

(* Propensities over a fixed event sequence, pinned bit for bit: gaps
   past the estimate by 0 to 40 slots reach both of Algorithm 2's
   branches, and a floor of 0.02 clamps the losing candidates. *)
let test_pinned_propensities () =
  let params = Estimator.default_params ~slot_cycles:slot in
  let params =
    {
      params with
      Estimator.learner = { params.Estimator.learner with Roth_erev.floor = 0.02 };
    }
  in
  let t = Estimator.create params (Rng.create 5L) in
  let time = ref 0 and x = ref 0 and picks = ref [] in
  for i = 1 to 40 do
    time := !time + !x + ([| 0; 20; 3; 40; 1; 9; 30 |].(i mod 7) * slot);
    x := Estimator.on_adjusting_event t ~now:!time;
    picks := (!x / (slot / 2)) :: !picks
  done;
  Alcotest.(check (list int))
    "estimates, in half slots"
    (4 :: List.init 39 (fun _ -> 16))
    (List.rev !picks);
  Alcotest.(check (array (float 0.)))
    "propensities"
    [|
      0x1.47ae147ae147bp-6;
      0x1.47ae147ae147bp-6;
      0x1.47ae147ae147bp-6;
      0x1.47ae147ae147bp-6;
      0x1.9cead874ed518p+2;
      0x1.10747f80d8da4p+2;
    |]
    (Estimator.propensities t)

let test_normalized_propensities () =
  let t = make_estimator () in
  let time = ref 0 in
  for _ = 1 to 30 do
    time := !time + (4 * slot);
    ignore (Estimator.on_adjusting_event t ~now:!time)
  done;
  Array.iter
    (fun q ->
      if q <= 0. || q > 100. then
        Alcotest.failf "propensity %f not O(1)-scaled" q)
    (Estimator.propensities t)

let test_last_estimate () =
  let t = make_estimator () in
  Alcotest.(check bool) "none initially" true (Estimator.last_estimate t = None);
  let x = Estimator.on_adjusting_event t ~now:0 in
  Alcotest.(check bool) "some after event" true
    (Estimator.last_estimate t = Some x)

let test_estimator_validation () =
  let p = Estimator.default_params ~slot_cycles:slot in
  let bad = { p with Estimator.candidates_cycles = [| 0 |] } in
  let raised =
    try ignore (Estimator.create bad (Rng.create 1L)); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "non-positive candidate" true raised

(* ----- Locality ----- *)

let profile = Locality.default_profile ~slot_cycles:slot

let test_generate () =
  let rng = Rng.create 4L in
  let t = Locality.generate rng profile ~n:50 in
  Alcotest.(check int) "count" 50 (List.length t.Locality.localities);
  List.iter
    (fun l ->
      if l.Locality.duration <= 0 then Alcotest.fail "non-positive duration")
    t.Locality.localities;
  (* Starts strictly increase. *)
  let starts = List.map (fun l -> l.Locality.start) t.Locality.localities in
  Alcotest.(check bool) "sorted starts" true
    (List.sort compare starts = starts)

let test_event_times_inside_localities () =
  let rng = Rng.create 5L in
  let t = Locality.generate rng profile ~n:20 in
  let events = Locality.event_times t in
  Alcotest.(check bool) "non-empty" true (events <> []);
  Alcotest.(check bool) "sorted" true (List.sort compare events = events);
  List.iter
    (fun time ->
      let inside =
        List.exists
          (fun l ->
            time >= l.Locality.start
            && time < l.Locality.start + l.Locality.duration)
          t.Locality.localities
      in
      if not inside then Alcotest.fail "event outside locality")
    events

let test_coverage_bounds () =
  let rng = Rng.create 6L in
  let t = Locality.generate rng profile ~n:30 in
  (* Perfect windows: exactly the localities. *)
  let exact =
    List.map
      (fun l -> (l.Locality.start, l.Locality.duration))
      t.Locality.localities
  in
  let hit, excess = Locality.coverage t ~windows:exact in
  Alcotest.(check (float 1e-9)) "full coverage" 1. hit;
  Alcotest.(check (float 1e-9)) "no excess" 0. excess;
  (* No windows at all. *)
  let hit0, excess0 = Locality.coverage t ~windows:[] in
  Alcotest.(check (float 1e-9)) "zero coverage" 0. hit0;
  Alcotest.(check (float 1e-9)) "zero excess" 0. excess0

let test_coverage_merges_overlaps () =
  let rng = Rng.create 8L in
  let t = Locality.generate rng profile ~n:10 in
  let l = List.hd t.Locality.localities in
  (* The same window three times must not triple-count. *)
  let w = (l.Locality.start, l.Locality.duration) in
  let hit, _ = Locality.coverage t ~windows:[ w; w; w ] in
  Alcotest.(check bool) "hit <= 1" true (hit <= 1.)

let test_autocorrelation_sign () =
  let rng = Rng.create 9L in
  let correlated =
    Locality.generate rng
      { profile with Locality.correlation = 0.9; jitter_cv = 0.1 }
      ~n:300
  in
  let ac = Locality.autocorrelation correlated ~lag:1 in
  Alcotest.(check bool) "strong positive autocorrelation" true (ac > 0.5)

let prop_estimator_positive =
  QCheck.Test.make ~name:"estimates always positive"
    QCheck.(pair int64 (list (int_range 1 1_000_000_000)))
    (fun (seed, gaps) ->
      let t = make_estimator ~seed () in
      let time = ref 0 in
      List.for_all
        (fun gap ->
          time := !time + gap;
          Estimator.on_adjusting_event t ~now:!time > 0)
        gaps)

let suite =
  [
    Alcotest.test_case "initial propensities" `Quick test_initial_propensities;
    Alcotest.test_case "select best" `Quick test_select_best;
    Alcotest.test_case "probabilistic valid" `Quick test_select_probabilistic_valid;
    Alcotest.test_case "probabilistic mass" `Quick test_probabilistic_follows_mass;
    Alcotest.test_case "recency and floor" `Quick test_update_recency_and_floor;
    Alcotest.test_case "pre-update view" `Quick test_update_sees_pre_update_state;
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "estimates are candidates" `Quick test_estimates_are_candidates;
    Alcotest.test_case "monotone time" `Quick test_monotone_time_required;
    Alcotest.test_case "under-coscheduling grows x" `Quick
      test_under_coscheduling_grows_estimate;
    Alcotest.test_case "pinned propensities" `Quick test_pinned_propensities;
    Alcotest.test_case "normalized propensities" `Quick test_normalized_propensities;
    Alcotest.test_case "last estimate" `Quick test_last_estimate;
    Alcotest.test_case "estimator validation" `Quick test_estimator_validation;
    Alcotest.test_case "locality generate" `Quick test_generate;
    Alcotest.test_case "locality events" `Quick test_event_times_inside_localities;
    Alcotest.test_case "coverage bounds" `Quick test_coverage_bounds;
    Alcotest.test_case "coverage merge" `Quick test_coverage_merges_overlaps;
    Alcotest.test_case "autocorrelation" `Quick test_autocorrelation_sign;
    QCheck_alcotest.to_alcotest prop_estimator_positive;
  ]
