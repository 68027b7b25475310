(* The generalized bench/diff engine. The table format (and the
   verdict semantics on the runs/micro/fairness sections) is carried
   over from the original bench/diff.ml so existing CI gates keep
   their meaning; the check section and strict-sections gating are
   the registry's additions. *)

module Json = Sim_obs.Json

type thresholds = {
  threshold : float;
  min_wall : float;
  fairness_threshold : float;
  strict_sections : bool;
}

let default =
  { threshold = 25.; min_wall = 0.25; fairness_threshold = 5.;
    strict_sections = false }

type result = { regressions : int; text : string }

(* ----- section extraction ----- *)

let entry_num key v =
  match Json.member key v with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ | None -> None

let entry_str key v =
  match Json.member key v with Some (Json.String s) -> Some s | _ -> None

let items = function Some (Json.List l) -> l | Some _ | None -> []

(* (id, wall_sec) per figure/ablation run. *)
let runs_of r =
  List.filter_map
    (fun run ->
      match (entry_str "id" run, entry_num "wall_sec" run) with
      | Some id, Some w -> Some (id, w)
      | _ -> None)
    (items (Record.section r "runs"))

(* ("bench backend [pN jN] pendingN", ops_per_sec) per micro
   measurement; pcpus/sim_jobs keep PDES sweep points distinct. *)
let micro_of r =
  List.filter_map
    (fun m ->
      match
        ( entry_str "bench" m,
          entry_str "backend" m,
          entry_num "pending" m,
          entry_num "ops_per_sec" m )
      with
      | Some b, Some k, Some p, Some rate ->
        let opt name short =
          match entry_num name m with
          | Some v -> Printf.sprintf " %s%.0f" short v
          | None -> ""
        in
        Some
          ( Printf.sprintf "%s %s%s%s %.0f" b k (opt "pcpus" "p")
              (opt "sim_jobs" "j") p,
            rate )
      | _ -> None)
    (items (Record.section r "micro"))

(* (id, attained/entitled ratio) per theft-figure cell. *)
let fairness_of r =
  List.filter_map
    (fun m ->
      match (entry_str "id" m, entry_num "ratio" m) with
      | Some id, Some ratio -> Some (id, ratio)
      | _ -> None)
    (items (Record.section r "fairness"))

(* (counter, value) per SimCheck health counter. *)
let check_of r =
  List.filter_map
    (fun m ->
      match (entry_str "id" m, entry_num "value" m) with
      | Some id, Some v -> Some (id, v)
      | _ -> None)
    (items (Record.section r "check"))

(* (metric, value) per cluster-run consolidation metric (density,
   p99 stall, migration counters). *)
let cluster_of r =
  List.filter_map
    (fun m ->
      match (entry_str "id" m, entry_num "value" m) with
      | Some id, Some v -> Some (id, v)
      | _ -> None)
    (items (Record.section r "cluster"))

(* ----- comparison ----- *)

(* Guarded for zero baselines (check counters are routinely 0). *)
let pct old fresh =
  if old = 0. then (if fresh = 0. then 0. else Float.infinity)
  else (fresh -. old) /. old *. 100.

(* [regressed ~id old new] decides the verdict for one entry; [gate]
   exempts entries (e.g. runs too short to time reliably). *)
let compare_section buf ~label ~unit ~regressed ?(gate = fun _ -> true)
    old_entries new_entries =
  let regressions = ref 0 in
  let shown = ref false in
  let header () =
    if not !shown then begin
      shown := true;
      Buffer.add_string buf
        (Printf.sprintf "%s (%s):\n  %-28s %12s %12s %9s\n" label unit "entry"
           "old" "new" "delta")
    end
  in
  List.iter
    (fun (id, old_v) ->
      match List.assoc_opt id new_entries with
      | None ->
        header ();
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %12.3f %12s %9s\n" id old_v "-" "gone")
      | Some new_v ->
        let delta = pct old_v new_v in
        let bad = regressed ~id old_v new_v in
        let gated = bad && gate old_v in
        if gated then incr regressions;
        header ();
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %12.3f %12.3f %+8.1f%%%s%s\n" id old_v
             new_v delta
             (if gated then "  <-- REGRESSION" else "")
             (if bad && not (gate old_v) then "  (ungated: too short)" else "")))
    old_entries;
  List.iter
    (fun (id, new_v) ->
      if not (List.mem_assoc id old_entries) then begin
        header ();
        Buffer.add_string buf
          (Printf.sprintf "  %-28s %12s %12.3f %9s\n" id "-" new_v "new")
      end)
    new_entries;
  if !shown then Buffer.add_char buf '\n';
  !regressions

(* A whole section missing from one record is reported; under
   [strict_sections] a *disappeared* section is a regression. *)
let section_presence buf ~strict ~label name old_r new_r =
  match (Record.section old_r name, Record.section new_r name) with
  | None, Some _ ->
    Buffer.add_string buf
      (Printf.sprintf "%s: section added in new record (nothing to compare)\n\n"
         label);
    (false, 0)
  | Some _, None ->
    Buffer.add_string buf
      (Printf.sprintf "%s: section removed in new record%s\n\n" label
         (if strict then "  <-- REGRESSION (--strict-sections)"
          else " (nothing to compare)"));
    (false, if strict then 1 else 0)
  | None, None | Some _, Some _ -> (true, 0)

let describe (r : Record.t) =
  let sha =
    match r.Record.git_sha with
    | Some s ->
      (String.sub s 0 (min 12 (String.length s)))
      ^ (if r.Record.git_dirty then "+dirty" else "")
    | None -> "no-git"
  in
  Printf.sprintf "%s (%s, %s, %s)" r.Record.id r.Record.kind
    (if r.Record.date = "" then "undated" else r.Record.date)
    sha

(* The axes two records must share for their numbers to be comparable.
   The queue backend is left out on purpose: wheel against heap is the
   differential the CI perf smoke runs across it. An empty value is a
   record that predates the stamp (topology) and matches anything. *)
let axes (r : Record.t) =
  [
    ("seed", Int64.to_string r.Record.seed);
    ("scale", Printf.sprintf "%g" r.Record.scale);
    ("workers", string_of_int r.Record.workers);
    ("topology", r.Record.topology);
    ("sim_jobs", string_of_int r.Record.sim_jobs);
    ("numa", string_of_bool r.Record.numa);
    ("accounting", r.Record.accounting);
  ]

let axis_mismatches old_r new_r =
  List.filter_map
    (fun ((name, o), (_, n)) ->
      if o = n || o = "" || n = "" then None
      else Some (Printf.sprintf "%s %s vs %s" name o n))
    (List.combine (axes old_r) (axes new_r))

let records t old_r new_r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "compare: %s -> %s (threshold %.0f%%)\n\n"
       (describe old_r) (describe new_r) t.threshold);
  let strict = t.strict_sections in
  let section ~label ~unit ~name ~regressed ?gate extract =
    let present, missing =
      section_presence buf ~strict ~label name old_r new_r
    in
    missing
    + if present then
        compare_section buf ~label ~unit ~regressed ?gate (extract old_r)
          (extract new_r)
      else 0
  in
  let r1 =
    section ~label:"figure/ablation wall time" ~unit:"sec" ~name:"runs"
      ~regressed:(fun ~id:_ old_v new_v -> pct old_v new_v > t.threshold)
      ~gate:(fun old_v -> old_v >= t.min_wall)
      runs_of
  in
  let r2 =
    section ~label:"event-queue micro throughput" ~unit:"events/sec"
      ~name:"micro"
      ~regressed:(fun ~id:_ old_v new_v -> -.pct old_v new_v > t.threshold)
      micro_of
  in
  (* Deterministic outputs: drift in either direction is a behaviour
     change, not noise, hence the tight symmetric gate. *)
  let r3 =
    section ~label:"fairness (attained/entitled)" ~unit:"ratio"
      ~name:"fairness"
      ~regressed:(fun ~id:_ old_v new_v ->
        Float.abs (pct old_v new_v) > t.fairness_threshold)
      fairness_of
  in
  (* Fuzzer health: counts, not percentages — one new failure or
     timeout is a regression no matter how many cases ran. *)
  let r4 =
    section ~label:"simcheck health" ~unit:"count" ~name:"check"
      ~regressed:(fun ~id old_v new_v ->
        (id = "failures" || id = "timeouts") && new_v > old_v)
      check_of
  in
  (* Cluster runs are seeded and deterministic like the fairness
     figure: consolidation density or tail-stall drift in either
     direction means placement or migration behaviour changed. *)
  let r5 =
    section ~label:"cluster consolidation" ~unit:"value" ~name:"cluster"
      ~regressed:(fun ~id old_v new_v ->
        (String.starts_with ~prefix:"density" id
        || String.starts_with ~prefix:"p99" id)
        && Float.abs (pct old_v new_v) > t.fairness_threshold)
      cluster_of
  in
  if old_r.Record.wall_sec > 0. && new_r.Record.wall_sec > 0. then
    Buffer.add_string buf
      (Printf.sprintf "total wall: %.3f s -> %.3f s (%+.1f%%)\n"
         old_r.Record.wall_sec new_r.Record.wall_sec
         (pct old_r.Record.wall_sec new_r.Record.wall_sec));
  let regressions = r1 + r2 + r3 + r4 + r5 in
  Buffer.add_string buf
    (if regressions > 0 then
       Printf.sprintf "\n%d regression(s) beyond threshold\n" regressions
     else "no regressions beyond threshold\n");
  { regressions; text = Buffer.contents buf }
