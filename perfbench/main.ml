(* The repository benchmark: one workload per process.

     main.exe --workload figs|decoupled|cluster [--seed N]
              [--seconds S] [--trace 0|1] [--smoke]

   Untraced (--trace 0): repeats set-up + one rep until --seconds have
   passed, checks every rep's simulated result against the other reps
   and, at seed 42, against the golden, and prints the end-to-end
   metrics. Traced (--trace 1): runs an untraced rep, the same rep with
   spans recorded around every call into a layer, and a rep on two
   workers, then prints the per-layer metrics and writes the spans as
   Chrome trace_event JSON to perfbench/out/.

   The first line of stdout, "# axes {...}", carries the axes the
   result is comparable under; human-readable lines follow; the last
   line is one JSON object {"correct", "attempted", "failed", "metrics"}.
   perfbench/run.py builds this program and drives it. *)

open Asman
module W = Workloads

type opts = {
  workload : W.t;
  seed : int64;
  seconds : float;
  trace : bool;
  size : W.size;
}

let nproc = Domain.recommended_domain_count ()

(* Timed and traced reps run on one worker; the traced run adds one rep
   on [parallel_workers], capped by the cores the process may use: more
   domains than cores would time descheduled domains as work. *)
let timed_workers = 1
let parallel_workers = min 2 nproc

let usage () =
  prerr_endline
    "usage: main.exe --workload figs|decoupled|cluster [--seed N] \
     [--seconds S] [--trace 0|1] [--smoke]";
  exit 2

let parse_args args =
  let fail msg =
    prerr_endline msg;
    usage ()
  in
  let workload = ref None and seed = ref 42L and seconds = ref 40. in
  let trace = ref false and size = ref W.Full in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload :=
        Some (match W.find v with Some w -> w | None -> fail ("unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest ->
      seed :=
        (match Int64.of_string_opt v with
        | Some s -> s
        | None -> fail "--seed needs an integer");
      go rest
    | "--seconds" :: v :: rest ->
      seconds :=
        (match float_of_string_opt v with
        | Some s when s > 0. -> s
        | _ -> fail "--seconds needs a positive number");
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      go rest
    | "--smoke" :: rest ->
      size := W.Smoke;
      go rest
    | arg :: _ -> fail ("unknown or incomplete argument " ^ arg)
  in
  go args;
  match !workload with
  | None -> fail "--workload is required"
  | Some workload ->
    { workload; seed = !seed; seconds = !seconds; trace = !trace; size = !size }

(* ----- statistics and process measurements ----- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ----- output ----- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* [metrics] are (name, unit, value). *)
let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit_, value) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string name)
             (json_number value) (Spans.json_string unit_))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let print_axes o =
  let w = o.workload in
  Printf.printf
    "# axes {\"workload\": %s, \"seed\": %Ld, \"size\": %s, \"workers\": %d, \
     \"parallel_workers\": %d, \"nproc\": %d, \"trace\": %b, \"ocaml\": %s, \
     \"shape\": %s}\n%!"
    (Spans.json_string w.W.name) o.seed
    (Spans.json_string (match o.size with W.Full -> "full" | W.Smoke -> "smoke"))
    timed_workers parallel_workers nproc o.trace
    (Spans.json_string Sys.ocaml_version)
    (Spans.json_string (w.W.shape o.size))

(* ----- correctness ----- *)

(* Every rep's digest must equal the first rep's and, at seed 42 and
   full size, the golden, and no rep may report an oracle error. Prints
   the failures; returns the failed rep count and whether everything
   passed. *)
let judge o (outcomes : W.outcome list) =
  let golden =
    if o.seed = 42L && o.size = W.Full then Some o.workload.W.golden else None
  in
  let reference =
    match (golden, outcomes) with
    | Some g, _ -> g
    | None, first :: _ -> first.W.digest
    | None, [] -> ""
  in
  let failed, msgs =
    List.fold_left
      (fun (failed, msgs) (i, (r : W.outcome)) ->
        let msgs =
          List.rev_append (List.map (Printf.sprintf "rep %d: %s" i) r.W.failures) msgs
        in
        let msgs =
          if r.W.digest = reference then msgs
          else
            Printf.sprintf "rep %d: digest %s, expected %s%s" i r.W.digest reference
              (if golden <> None then " (golden)" else "")
            :: msgs
        in
        let ok = r.W.digest = reference && r.W.failures = [] in
        ((if ok then failed else failed + 1), msgs))
      (0, [])
      (List.mapi (fun i r -> (i, r)) outcomes)
  in
  List.iter (fun m -> Printf.printf "FAIL %s\n" m) (List.rev msgs);
  (failed, msgs = [])

(* ----- one rep ----- *)

(* Set-up runs [batch] times per rep, each timed: setup_s is the median
   over all of a run's timed set-ups, so set-ups of a fraction of a
   millisecond that a slow moment or a preemption stretches do not move
   it. The count is fixed, not timed, so a rep's garbage (hence GC
   pacing and peak memory) does not depend on the machine's speed. The
   last set-up's inputs feed the rep. *)
let batch = 10

(* The host's speed of the moment: [Calib.reference_s] over the median
   of [batch] calibration samples (see calib.ml). Every time a run
   reports is multiplied by the speed measured just before it. *)
let host_speed () = Calib.reference_s /. median (List.init batch (fun _ -> Calib.sample ()))

type rep = { setups : float list; speed : float; wall_s : float; outcome : W.outcome }

(* A full major GC, not a compaction, between phases: compaction hands
   the heap back to the OS and the next phase would fault it in again. *)
let one_rep o =
  Gc.full_major ();
  let rec prepare n setups =
    let run, s = W.time (fun () -> o.workload.W.prepare ~seed:o.seed o.size) in
    if n = 1 then (run, s :: setups) else prepare (n - 1) (s :: setups)
  in
  let run, setups = prepare batch [] in
  Gc.full_major ();
  let speed = host_speed () in
  let outcome, wall_s = W.time (fun () -> run ~workers:timed_workers) in
  { setups; speed; wall_s; outcome }

(* ----- untraced run: the end-to-end metrics ----- *)

(* A smoke run checks, it does not measure: one timed rep is enough to
   compare two digests. *)
let min_reps = function W.Full -> 3 | W.Smoke -> 1

(* The first rep warms the heap and the machine (its first-touch page
   faults cost up to 50% extra on the machine the baseline was measured
   on); it is judged but not timed. *)
let warmup_reps = 1

let describe name xs =
  Printf.printf "  %-13s %12.6f s  median of %d (min %.6f, max %.6f)\n" name (median xs)
    (List.length xs)
    (List.fold_left Float.min infinity xs)
    (List.fold_left Float.max neg_infinity xs)

(* Timed reps run until the next one would end past --seconds. Every
   time is scaled by its rep's host speed, so the metrics read in
   seconds of a host that runs the calibration kernel in
   [Calib.reference_s]; the raw medians are printed beside them. *)
let run_untraced o =
  let t0 = Unix.gettimeofday () in
  let rec loop i acc =
    let t = Unix.gettimeofday () in
    let r = one_rep o in
    let acc = (r, Unix.gettimeofday () -. t) :: acc in
    Printf.printf "rep %d%s: setup %.6f s (median of %d), host speed %.4f, wall %.4f s, \
                   scaled %.4f s\n%!"
      i
      (if i < warmup_reps then " (warm-up)" else "")
      (median r.setups) batch r.speed r.wall_s (r.wall_s *. r.speed);
    let per_rep = median (List.map snd acc) in
    if
      i + 1 >= warmup_reps + min_reps o.size
      && Unix.gettimeofday () -. t0 +. per_rep > o.seconds
    then List.rev_map fst acc
    else loop (i + 1) acc
  in
  let reps = loop 0 [] in
  let timed = List.filteri (fun i _ -> i >= warmup_reps) reps in
  let scaled f = List.concat_map (fun r -> List.map (fun x -> x *. r.speed) (f r)) timed in
  let outcomes = List.map (fun r -> r.outcome) reps in
  let failed, correct = judge o outcomes in
  Printf.printf "%s, seed %Ld: %d timed reps after %d warm-up, digest %s\n"
    o.workload.W.name o.seed (List.length timed) warmup_reps
    (match outcomes with r :: _ -> r.W.digest | [] -> "-");
  describe "raw wall" (List.map (fun r -> r.wall_s) timed);
  describe "raw setup" (List.concat_map (fun r -> r.setups) timed);
  describe "wall_s" (scaled (fun r -> [ r.wall_s ]));
  describe "setup_s" (scaled (fun r -> r.setups));
  print_result ~correct ~attempted:(List.length outcomes) ~failed
    [
      ("wall_s", "s", median (scaled (fun r -> [ r.wall_s ])));
      ("setup_s", "s", median (scaled (fun r -> r.setups)));
    ];
  if not correct then exit 1

(* ----- traced run: the per-layer metrics ----- *)

type gc_counts = { minor_words : float; promoted : float; minors : int; majors : int }

(* Gc counters of the main domain plus every domain joined meanwhile:
   read after the run, when Pool and fabric workers have joined. *)
let gc_counts f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

(* One rep with the spans armed; set-up is outside the timed part, as
   in the untraced run. Returns the host speed measured before it with
   the rep's results. *)
let traced_rep ?profile o ~label ~workers =
  Spans.workload := label;
  Gc.full_major ();
  let run =
    Spans.with_span ~layer:"bench" "setup" (fun () ->
        o.workload.W.prepare ?profile ~seed:o.seed o.size)
  in
  Gc.full_major ();
  let speed = host_speed () in
  Pool.reset_accounting ();
  let (outcome, wall_s), gc =
    gc_counts (fun () ->
        W.time (fun () -> Spans.with_span ~layer:"bench" "rep" (fun () -> run ~workers)))
  in
  (speed, outcome, wall_s, gc, Pool.accounting ())

let write_spans o =
  let json = Spans.to_chrome () in
  let file = Printf.sprintf "perfbench/out/spans-%s-%Ld.json" o.workload.W.name o.seed in
  match Sim_obs.Json.validate json with
  | Error e -> Printf.printf "FAIL span file is not valid JSON: %s\n" e; false
  | Ok () -> (
    try
      let dir = Filename.dirname file in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Out_channel.with_open_text file (fun oc -> output_string oc json);
      Printf.printf "spans written to %s\n" file;
      true
    with Sys_error e -> Printf.printf "FAIL span file not written: %s\n" e; false)

let run_traced o =
  let name = o.workload.W.name in
  let par = parallel_workers in
  (* 1. a warm-up rep, then an untraced one: the base of the overhead *)
  let warm = (one_rep o).outcome in
  let u = one_rep o in
  let untraced = u.outcome and untraced_s = u.wall_s *. u.speed in
  (* the workload's own peak, before the profiler's retention *)
  let rss = peak_rss_mb () in
  (* 2. the same rep with spans, the runner's profiler and (figs)
     metrics registration; 3. the rep on [par] workers. Rep times are
     scaled by host speed, as in the untraced run, so that ratios of
     two reps hold the program's change and not the host's. *)
  Spans.enabled := true;
  let prof = Sim_obs.Prof.create ~clock:Unix.gettimeofday () in
  let speed_1, traced, traced_raw, gc, pool_1 =
    traced_rep ~profile:prof o ~label:name ~workers:timed_workers
  in
  let speed_par, parallel, par_raw, _, pool_par =
    traced_rep o ~label:(Printf.sprintf "%s.w%d" name par) ~workers:par
  in
  let traced_s = traced_raw *. speed_1 and par_s = par_raw *. speed_par in
  (* 4. the references only one workload has *)
  Spans.workload := name ^ ".ref";
  Gc.full_major ();
  let coupled =
    if name = "decoupled" then
      let speed = host_speed () in
      let events, s = W.time (fun () -> W.coupled_reference ~seed:o.seed o.size) in
      Some (events, s *. speed)
    else None
  in
  let coupled_s = Option.map snd coupled in
  Spans.enabled := false;
  (* every rep of one seed must agree, whatever the worker count,
     tracing or profiling *)
  let outcomes = [ warm; untraced; traced; parallel ] in
  let failed, correct = judge o outcomes in
  let correct = write_spans o && correct in
  let f = float_of_int in
  let ratio a b = if b > 0. then a /. b else 0. in
  let counter k = Option.value (List.assoc_opt k traced.W.counters) ~default:0. in
  let events = traced.W.events in
  let prof_s label =
    List.fold_left
      (fun acc (s : Sim_obs.Prof.section) ->
        if s.Sim_obs.Prof.label = label then acc +. s.Sim_obs.Prof.total_sec else acc)
      0. (Sim_obs.Prof.sections prof)
  in
  let job_ms = List.map (fun t -> t.Pool.wall_sec *. 1e3) pool_par.Pool.timings in
  let pool_used = job_ms <> [] in
  let windows = counter "fabric.windows" in
  (* the human-readable breakdown *)
  Printf.printf "%s, seed %Ld (rep times scaled by host speed):\n" name o.seed;
  Printf.printf
    "  untraced rep %.4f s, traced rep %.4f s (overhead %+.4f s) on %d worker(s); %.4f s \
     on %d\n"
    untraced_s traced_s (traced_s -. untraced_s) timed_workers par_s par;
  Printf.printf "  host speed %.4f, %.4f, %.4f before those reps\n" u.speed speed_1
    speed_par;
  Option.iter
    (fun (events, s) ->
      Printf.printf "  coupled single-engine reference %.4f s, %d events\n" s events)
    coupled;
  print_endline "raw times from here on";
  print_endline "self time by layer, all traced reps (calls, total s, self s):";
  List.iter
    (fun (k, (n, total, self)) ->
      Printf.printf "  %-10s %6d %10.4f %10.4f\n" k n total self)
    (Spans.by_layer ());
  print_endline "self time by span:";
  List.iter
    (fun (k, (n, total, self)) ->
      Printf.printf "  %-48s %6d %10.4f %10.4f\n" k n total self)
    (Spans.by_name ());
  if prof_s "engine.run" > 0. then
    Printf.printf "runner: engine.run %.4f s, collect %.4f s, other %.4f s\n"
      (prof_s "engine.run") (prof_s "collect")
      (traced_raw -. prof_s "engine.run" -. prof_s "collect");
  if pool_used then
    Printf.printf
      "pool on %d workers: %d jobs, busy %.4f s (%.4f s on %d); job p50 %.2f ms, p98 \
       %.2f ms, p99 %.2f ms, max %.2f ms\n"
      par (List.length job_ms) pool_par.Pool.busy_sec pool_1.Pool.busy_sec timed_workers
      (percentile 50. job_ms) (percentile 98. job_ms) (percentile 99. job_ms)
      (percentile 100. job_ms);
  if windows > 0. then
    Printf.printf "fabric: %.0f windows, %.2f us per window\n" windows
      (u.wall_s *. 1e6 /. windows);
  let metrics =
    [
      ("peak_rss_mb", "MB", rss);
      ("rep.untraced_s", "s", untraced_s);
      ("rep.traced_s", "s", traced_s);
      ("trace.overhead_ratio", "ratio", traced_s /. untraced_s);
      ("rep.parallel_s", "s", par_s);
      ("parallel_speedup", "x", untraced_s /. par_s);
      ("engine.events", "count", f events);
      ("engine.ns_per_event", "ns", ratio (untraced_s *. 1e9) (f events));
      ("gc.minor_words_per_event", "words", ratio gc.minor_words (f events));
      ("gc.promoted_words", "words", gc.promoted);
      ("gc.minor_collections", "count", f gc.minors);
      ("gc.major_collections", "count", f gc.majors);
      ("pool.efficiency", "ratio", ratio pool_par.Pool.busy_sec (par_raw *. f par));
      ( "pool.inflation",
        "ratio",
        ratio (pool_par.Pool.busy_sec *. speed_par) (pool_1.Pool.busy_sec *. speed_1) );
      ( "pool.tail_ratio",
        "ratio",
        if pool_used then percentile 98. job_ms /. percentile 50. job_ms else 0. );
      ("runner.engine_share", "ratio", ratio (prof_s "engine.run") traced_raw);
      ("runner.collect_share", "ratio", ratio (prof_s "collect") traced_raw);
      ("fabric.windows", "count", windows);
      ("fabric.cross_posts", "count", counter "fabric.cross_posts");
      ("fabric.max_window_mail", "count", counter "fabric.max_window_mail");
      ("fabric.events_per_window", "events", ratio (f traced.W.events) windows);
      ( "fabric.sharding_speedup",
        "x",
        match coupled_s with Some c -> c /. untraced_s | None -> 0. );
      ("decouple.steal_reqs", "count", counter "decouple.steal_reqs");
      ("decouple.grants", "count", counter "decouple.grants");
      ("decouple.nacks", "count", counter "decouple.nacks");
      ( "decouple.grant_ratio",
        "ratio",
        ratio (counter "decouple.grants") (counter "decouple.steal_reqs") );
      ("vmm.ctx_switches", "count", counter "vmm.ctx_switches");
      ("vmm.ipis", "count", counter "vmm.ipis");
      ("guest.spin_over_threshold", "count", counter "guest.spin_over_threshold");
      ("learn.adjusting_events", "count", counter "learn.adjusting_events");
      ("cluster.placements", "count", counter "cluster.placements");
      ("cluster.deferrals", "count", counter "cluster.deferrals");
      ("cluster.migrations", "count", counter "cluster.migrations");
      ("cluster.nacks", "count", counter "cluster.nacks");
      ("cluster.departures", "count", counter "cluster.departures");
      ("cluster.repredictions", "count", counter "cluster.repredictions");
      ("cluster.downtime_ms", "sim_ms", counter "cluster.downtime_ms");
      ( "cluster.density_vms_per_host",
        "VMs/host",
        counter "cluster.density_vms_per_host" );
      ("cluster.p99_stall_ms", "sim_ms", counter "cluster.p99_stall_ms");
    ]
  in
  print_endline "per-layer metrics:";
  List.iter (fun (n, u, v) -> Printf.printf "  %-30s %16.6f %s\n" n v u) metrics;
  print_result ~correct ~attempted:(List.length outcomes) ~failed metrics;
  if not correct then exit 1

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  print_axes o;
  if o.trace then run_traced o else run_untraced o
