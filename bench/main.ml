(* The figure harness: regenerates every figure of the paper's
   evaluation (Figures 1, 2, 7-12 — the paper has no numbered tables)
   and the ablation studies, and times the two layers the figures
   cannot isolate: the event queue (wheel vs heap) and the PDES fabric.

     dune exec bench/main.exe              # figures + ablations + micro
     dune exec bench/main.exe -- fig7      # one figure
     dune exec bench/main.exe -- ablations # only the ablation studies
     dune exec bench/main.exe -- micro     # event-queue micro + PDES sweep
     dune exec bench/main.exe -- pdes      # only the PDES fabric sweep
     dune exec bench/main.exe -- -j 4      # fan jobs over 4 domains
     dune exec bench/main.exe -- --json out.json   # write the run record
     dune exec bench/main.exe -- --engine-queue=heap  # heap oracle
     BENCH_SCALE=0.5 dune exec bench/main.exe   # bigger workloads
     ASMAN_JOBS=4 dune exec bench/main.exe      # worker count via env
     BENCH_COST_CACHE=f dune exec bench/main.exe  # cost cache file

   Figure/ablation data points fan out over Asman.Pool worker domains
   (-j N or ASMAN_JOBS; default: cores - 1; -j 1 = sequential). With
   --json [FILE] the invocation's run record (per-figure and per-job
   wall-clock timings, micro rows, fairness ratios, profile sections
   and the config axes) is also written to FILE (default
   BENCH_<date>.json); `asman compare` compares two records taken on
   the same axes.
   --engine-queue selects the event-queue backend (default wheel;
   results are byte-identical either way). Per-job wall times persist
   in BENCH_COST_CACHE (default runs/cost_cache; empty disables) so
   repeat runs schedule longest jobs first. Whole-program speed across
   commits is perfbench's job (perfbench/README.md), not this one's.

   Every invocation also drops a metadata-stamped record into the run
   registry (runs/ by default; ASMAN_RUNS= disables) — see
   lib/registry. Recording is observation-only: the note goes to
   stderr and stdout is byte-identical with recording on or off. *)

open Asman

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (
    match float_of_string_opt s with
    | Some f when f > 0. -> f
    | Some _ | None -> Config.default.Config.scale)
  | None -> Config.default.Config.scale

(* Every run in this harness charges the runner's phases
   (engine.run/collect, summed across Pool workers) to one shared
   self-profiler; the sections land in the run record next to the
   wall-clock timings. Profiling does not perturb simulation results —
   only trace/metrics flags stay off. *)
let prof = Sim_obs.Prof.create ~clock:Unix.gettimeofday ()

let config =
  {
    (Config.with_scale Config.default scale) with
    Config.obs = { Config.obs_off with Config.profile = Some prof };
  }

(* ----- per-run timings (for the report and the run record) ----- *)

type timing_entry = {
  entry_id : string;
  wall_sec : float;
  stats : Pool.stats;
}

(* Reversed run order. *)
let recorded : timing_entry list ref = ref []

(* Tagging the run's jobs with its id feeds the persistent LPT cost
   cache: the next regeneration of the same figure starts its longest
   jobs first (see Pool's cost-aware ordering). *)
let timed id f =
  Pool.reset_accounting ();
  Pool.set_job_group (Some id);
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let wall_sec = Unix.gettimeofday () -. t0 in
  Pool.set_job_group None;
  let stats = Pool.accounting () in
  recorded := { entry_id = id; wall_sec; stats } :: !recorded;
  Sim_obs.Prof.add prof ("run." ^ id) wall_sec;
  (result, wall_sec, stats)

let speedup ~wall_sec (stats : Pool.stats) =
  if wall_sec > 0. then stats.Pool.busy_sec /. wall_sec else 1.

let print_timing id wall_sec (stats : Pool.stats) =
  Printf.printf
    "(%s regenerated in %.1f s host wall: %d jobs over %d workers, busy \
     %.1f s, speedup %.2fx)\n\n%!"
    id wall_sec
    (List.length stats.Pool.timings)
    stats.Pool.jobs_used stats.Pool.busy_sec (speedup ~wall_sec stats)

(* ----- figure regeneration ----- *)

(* Fairness entries from the theft figure: one
   "<series label> <attack>" -> attained/entitled ratio per cell.
   Recorded as the "fairness" section so `asman compare` can
   gate attained-share drift next to the wall-clock timings. *)
let fairness_results : (string * float) list ref = ref []

let capture_fairness (outcome : Experiments.outcome) =
  fairness_results := !fairness_results @ Experiments.fairness_entries outcome

let run_experiment (e : Experiments.t) =
  let id = e.Experiments.id in
  let outcome, wall_sec, stats = timed id (fun () -> e.Experiments.run config) in
  if id = "theft" then capture_fairness outcome;
  print_string (Report.outcome e outcome);
  print_timing id wall_sec stats

let run_figures experiments =
  Printf.printf
    "ASMan reproduction — figure regeneration (workload scale %g, seed %Ld, \
     %d worker domains)\n\
     Absolute times are simulator scale; compare shapes and ratios with the\n\
     paper columns printed next to each measured table.\n\n%!"
    scale config.Config.seed (Pool.jobs ());
  List.iter run_experiment experiments

(* ----- ablation studies ----- *)

let run_ablation (a : Ablations.t) =
  let id = a.Experiments.id in
  let outcome, wall_sec, stats = timed id (fun () -> a.Experiments.run config) in
  print_string (Report.outcome a outcome);
  print_timing id wall_sec stats

let run_ablations () =
  print_endline "--- ablation studies (DESIGN.md design choices) ---\n";
  List.iter run_ablation Ablations.all

(* ----- the run record (lib/registry): runs/ and --json ----- *)

module Reg = Sim_registry
module Json = Sim_obs.Json

let default_json_file () = Printf.sprintf "BENCH_%s.json" (Reg.Meta.date ())

(* Event-queue micro results (bench/micro.ml), when that suite ran. *)
let micro_results : Micro.result list ref = ref []

(* Conservative-PDES sweep results and fingerprint verdict, when that
   suite ran; rows join the "micro" section. *)
let pdes_results : Micro.pdes_result list ref = ref []

let pdes_ok = ref true

(* The record's metric sections: per-run wall and per-job seconds,
   micro rows, theft fairness ratios (only when that figure ran:
   `asman compare` reports, never gates, a section missing from one
   side) and the self-profiler's sections. *)
let sections entries =
  let run e =
    Json.Obj
      [
        ("id", Json.String e.entry_id);
        ("wall_sec", Json.Float e.wall_sec);
        ("busy_sec", Json.Float e.stats.Pool.busy_sec);
        ("jobs", Json.Int (List.length e.stats.Pool.timings));
        ("workers", Json.Int e.stats.Pool.jobs_used);
        ("speedup", Json.Float (speedup ~wall_sec:e.wall_sec e.stats));
        ( "job_sec",
          Json.List
            (List.map
               (fun (t : Pool.job_timing) -> Json.Float t.Pool.wall_sec)
               e.stats.Pool.timings) );
      ]
  in
  let fairness (id, ratio) =
    Json.Obj [ ("id", Json.String id); ("ratio", Json.Float ratio) ]
  in
  let profile (s : Sim_obs.Prof.section) =
    Json.Obj
      [
        ("label", Json.String s.Sim_obs.Prof.label);
        ("total_sec", Json.Float s.Sim_obs.Prof.total_sec);
        ("calls", Json.Int s.Sim_obs.Prof.calls);
      ]
  in
  Json.Obj
    ([
       ("runs", Json.List (List.map run entries));
       ( "micro",
         Json.List
           (List.map Micro.to_json !micro_results
           @ List.map Micro.pdes_to_json !pdes_results) );
     ]
    @ (match !fairness_results with
      | [] -> []
      | l -> [ ("fairness", Json.List (List.map fairness l)) ])
    @ [ ("profile", Json.List (List.map profile (Sim_obs.Prof.sections prof))) ])

let record_run ~ids ~json =
  let label =
    match ids with
    | [] -> "bench all"
    | ids -> "bench " ^ String.concat " " ids
  in
  let kind = match ids with [ "theft" ] -> "theft" | _ -> "bench" in
  let entries = List.rev !recorded in
  let wall_sec = List.fold_left (fun s e -> s +. e.wall_sec) 0. entries in
  let busy_sec =
    List.fold_left (fun s e -> s +. e.stats.Pool.busy_sec) 0. entries
  in
  let spec =
    Json.Obj
      [
        ( "argv",
          Json.List
            (List.map
               (fun s -> Json.String s)
               (List.tl (Array.to_list Sys.argv))) );
        ("scale", Json.Float scale);
      ]
  in
  let r =
    Reg.Record.make
      ~id:(Reg.Registry.fresh_id ~kind)
      ~kind ~seed:config.Config.seed ~scale
      ~queue:(Sim_engine.Equeue.kind_name (Sim_engine.Engine.default_queue ()))
      ~workers:(Pool.jobs ()) ~sim_jobs:config.Config.sim_jobs
      ~topology:(Sim_hw.Topology.to_string config.Config.topology)
      ~numa:config.Config.numa
      ~accounting:(Sim_vmm.Vmm.accounting_name config.Config.accounting)
      ~label ~spec ~wall_sec ~busy_sec ~sections:(sections entries) ()
  in
  (match json with
  | Some path ->
    Reg.Registry.write path r;
    Printf.printf "run record written to %s\n%!" path
  | None -> ());
  (* Observation-only: the note goes to stderr so stdout stays
     byte-identical with recording on or off. *)
  match Reg.Registry.save_if_enabled r with
  | Some path -> Printf.eprintf "run recorded: %s\n%!" path
  | None -> ()

(* ----- event-queue and fabric micro-benchmarks ----- *)

let pdes_suite () =
  let results, ok = Micro.run_pdes_all () in
  pdes_results := results;
  pdes_ok := ok;
  Micro.print_pdes (results, ok)

let microbenchmarks () =
  let eq = Micro.run () in
  micro_results := eq;
  Micro.print eq;
  pdes_suite ()

(* ----- argument parsing ----- *)

type opts = {
  jobs : int option;
  json : string option;
  queue : Sim_engine.Engine.queue_kind option;
  ids : string list;
}

let usage () =
  prerr_endline
    "usage: main.exe [-j N] [--json [FILE]] [--engine-queue=wheel|heap] \
     [micro|pdes|ablations|chaos|<figure ids>]";
  exit 2

let parse_args args =
  let rec go acc = function
    | [] -> { acc with ids = List.rev acc.ids }
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> go { acc with jobs = Some j } rest
      | Some _ | None ->
        prerr_endline "-j needs a positive integer";
        usage ())
    | [ "-j" ] ->
      prerr_endline "-j needs a positive integer";
      usage ()
    | "--json" :: f :: rest when Filename.check_suffix f ".json" ->
      go { acc with json = Some f } rest
    | "--json" :: rest -> go { acc with json = Some (default_json_file ()) } rest
    | arg :: rest
      when String.length arg > 15
           && String.sub arg 0 15 = "--engine-queue=" -> (
      let name = String.sub arg 15 (String.length arg - 15) in
      match Sim_engine.Equeue.kind_of_name name with
      | Some k -> go { acc with queue = Some k } rest
      | None ->
        prerr_endline "--engine-queue takes wheel or heap";
        usage ())
    | "--engine-queue" :: name :: rest -> (
      match Sim_engine.Equeue.kind_of_name name with
      | Some k -> go { acc with queue = Some k } rest
      | None ->
        prerr_endline "--engine-queue takes wheel or heap";
        usage ())
    | id :: rest -> go { acc with ids = id :: acc.ids } rest
  in
  go { jobs = None; json = None; queue = None; ids = [] } args

(* Persistent LPT cost cache: per-job wall times from earlier bench
   runs, used to start each figure's longest jobs first. Lives next to
   the registry records (runs/cost_cache). *)
let cost_cache_file =
  match Sys.getenv_opt "BENCH_COST_CACHE" with
  | Some "" -> None
  | Some f -> Some f
  | None -> Some (Filename.concat "runs" "cost_cache")

let load_cost_cache () =
  match cost_cache_file with
  | None -> ()
  | Some f -> Pool.load_cost_cache f

let save_cost_cache () =
  match cost_cache_file with
  | None -> ()
  | Some f ->
    Reg.Registry.ensure_dir (Filename.dirname f);
    Pool.save_cost_cache f

(* What a positional id selects. Every id is resolved before anything
   runs, so a typo exits 2 with the usage text instead of silently
   running the rest. *)
type target = Figure of Experiments.t | Ablation of Ablations.t

let resolve_targets ids =
  let resolve id =
    match (Experiments.find id, Ablations.find id) with
    | Some e, _ -> Some (Figure e)
    | None, Some a -> Some (Ablation a)
    | None, None -> None
  in
  match List.filter (fun id -> Option.is_none (resolve id)) ids with
  | [] -> List.filter_map resolve ids
  | unknown ->
    List.iter (Printf.eprintf "unknown id %s\n") unknown;
    usage ()

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let targets =
    match opts.ids with
    | [] | [ ("micro" | "pdes" | "ablations" | "chaos") ] -> []
    | ids -> resolve_targets ids
  in
  (match opts.jobs with Some j -> Pool.set_jobs j | None -> ());
  (match opts.queue with
  | Some k -> Sim_engine.Engine.set_default_queue k
  | None -> ());
  load_cost_cache ();
  (match opts.ids with
  | [] ->
    run_figures Experiments.all;
    run_ablations ();
    microbenchmarks ()
  | [ "micro" ] -> microbenchmarks ()
  | [ "pdes" ] -> pdes_suite ()
  | [ "ablations" ] -> run_ablations ()
  | [ "chaos" ] -> run_figures (Option.to_list (Experiments.find "resilience"))
  | _ ->
    List.iter
      (function Figure e -> run_experiment e | Ablation a -> run_ablation a)
      targets);
  save_cost_cache ();
  record_run ~ids:opts.ids ~json:opts.json;
  if not !pdes_ok then begin
    prerr_endline "pdes: -j1-vs-jN fingerprint mismatch";
    exit 1
  end
