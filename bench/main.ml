(* The benchmark harness: regenerates every figure of the paper's
   evaluation (Figures 1, 2, 7-12 — the paper has no numbered tables)
   and micro-benchmarks the simulator's core primitives with Bechamel.

     dune exec bench/main.exe              # figures + ablations + micro
     dune exec bench/main.exe -- fig7      # one figure
     dune exec bench/main.exe -- ablations # only the ablation studies
     dune exec bench/main.exe -- micro     # only the micro-benchmarks
     dune exec bench/main.exe -- pdes      # only the PDES fabric sweep
     dune exec bench/main.exe -- -j 4      # fan jobs over 4 domains
     dune exec bench/main.exe -- --json out.json   # dump timings
     dune exec bench/main.exe -- --engine-queue=heap  # heap oracle
     BENCH_SCALE=0.5 dune exec bench/main.exe   # bigger workloads
     ASMAN_JOBS=4 dune exec bench/main.exe      # worker count via env
     BENCH_COST_CACHE=f dune exec bench/main.exe  # cost cache file

   Figure/ablation data points fan out over Asman.Pool worker domains
   (-j N or ASMAN_JOBS; default: cores - 1; -j 1 = sequential). With
   --json [FILE] the per-figure and per-job wall-clock timings plus
   the worker count are dumped to FILE (default BENCH_<date>.json) so
   the perf trajectory is tracked over time; `asman compare` compares
   two dumps. --engine-queue selects the event-queue backend (default
   wheel; results are byte-identical either way). Per-job wall times
   persist in BENCH_COST_CACHE (default runs/cost_cache; empty
   disables) so repeat runs schedule longest jobs first.

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
   self-profiler; the sections land in the --json dump next to the
   wall-clock timings. Profiling does not perturb simulation results —
   only trace/metrics flags stay off. *)
let prof = Sim_obs.Prof.create ~clock:Unix.gettimeofday ()

let config =
  {
    (Config.with_scale Config.default scale) with
    Config.obs = { Config.obs_off with Config.profile = Some prof };
  }

(* ----- per-run timing records (for the report and --json) ----- *)

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
   Dumped as the "fairness" JSON section so `asman compare` can
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
  let id = a.Ablations.id in
  let outcome, wall_sec, stats = timed id (fun () -> a.Ablations.run config) in
  let as_experiment =
    {
      Experiments.id;
      title = a.Ablations.title;
      description = a.Ablations.description;
      run = a.Ablations.run;
    }
  in
  print_string (Report.outcome as_experiment outcome);
  print_timing id wall_sec stats

let run_ablations () =
  print_endline "--- ablation studies (DESIGN.md design choices) ---\n";
  List.iter run_ablation Ablations.all

(* ----- machine-readable timing dump (--json) ----- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let date_string () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let default_json_file () = Printf.sprintf "BENCH_%s.json" (date_string ())

(* Event-queue micro results (bench/micro.ml), when that suite ran. *)
let micro_results : Micro.result list ref = ref []

(* Conservative-PDES sweep results and fingerprint verdict, when that
   suite ran; rows are merged into the "micro" JSON array. *)
let pdes_results : Micro.pdes_result list ref = ref []

let pdes_ok = ref true

(* Decoupled-VMM scenario rows and the w1-vs-wN digest verdict, when
   that suite ran; rows merge into the same "micro" JSON array. *)
let vmm_results : Micro.vmm_result list ref = ref []

let vmm_ok = ref true

let write_json path =
  let entries = List.rev !recorded in
  let total_wall = List.fold_left (fun s e -> s +. e.wall_sec) 0. entries in
  let entry_json e =
    let job_secs =
      String.concat ","
        (List.map
           (fun (t : Pool.job_timing) -> Printf.sprintf "%.6f" t.Pool.wall_sec)
           e.stats.Pool.timings)
    in
    Printf.sprintf
      "    {\"id\":\"%s\",\"wall_sec\":%.6f,\"busy_sec\":%.6f,\"jobs\":%d,\
       \"workers\":%d,\"speedup\":%.3f,\"job_sec\":[%s]}"
      (json_escape e.entry_id) e.wall_sec e.stats.Pool.busy_sec
      (List.length e.stats.Pool.timings)
      e.stats.Pool.jobs_used
      (speedup ~wall_sec:e.wall_sec e.stats)
      job_secs
  in
  (* Section present only when the theft figure ran: `asman compare`
     reports (never gates) a section missing from one side. *)
  let fairness_section =
    match !fairness_results with
    | [] -> ""
    | entries ->
      Printf.sprintf "  \"fairness\": [\n%s\n  ],\n"
        (String.concat ",\n"
           (List.map
              (fun (id, ratio) ->
                Printf.sprintf "    {\"id\":\"%s\",\"ratio\":%.6f}"
                  (json_escape id) ratio)
              entries))
  in
  (* Provenance stamps (satellite of the run registry): which tree,
     which machine axes. Older dumps without them still ingest — the
     readers default every stamp. *)
  let git_stamp =
    match Sim_registry.Meta.git_info () with
    | None -> ""
    | Some (sha, dirty) ->
      Printf.sprintf "  \"git_sha\": \"%s\",\n  \"git_dirty\": %b,\n"
        (json_escape sha) dirty
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
     \  \"date\": \"%s\",\n\
     \  \"scale\": %g,\n\
     \  \"seed\": %Ld,\n\
     \  \"workers\": %d,\n\
     \  \"queue\": \"%s\",\n\
     %s\
     \  \"accounting\": \"%s\",\n\
     \  \"sim_jobs\": %d,\n\
     \  \"topology\": \"%s\",\n\
     \  \"numa\": %b,\n\
     \  \"total_wall_sec\": %.6f,\n\
     \  \"runs\": [\n%s\n\
     \  ],\n\
     \  \"micro\": [\n%s\n\
     \  ],\n\
     %s\
     \  \"profile\": [%s]\n\
     }\n"
    (date_string ()) scale config.Config.seed (Pool.jobs ())
    (Sim_engine.Equeue.kind_name (Sim_engine.Engine.default_queue ()))
    git_stamp
    (Sim_vmm.Vmm.accounting_name config.Config.accounting)
    config.Config.sim_jobs
    (json_escape (Sim_hw.Topology.to_string config.Config.topology))
    config.Config.numa total_wall
    (String.concat ",\n" (List.map entry_json entries))
    (String.concat ",\n"
       (List.filter
          (fun s -> s <> "")
          [
            Micro.to_json_fragment !micro_results;
            Micro.pdes_to_json_fragment !pdes_results;
            Micro.vmm_to_json_fragment !vmm_results;
          ]))
    fairness_section
    (Sim_obs.Prof.to_json_fragment prof);
  close_out oc;
  Printf.printf "timings written to %s\n%!" path

(* ----- run-registry record (lib/registry) ----- *)

module Reg = Sim_registry

(* The record's sections mirror the --json dump shapes so `asman
   compare` treats a record and a raw dump interchangeably. Micro rows
   are round-tripped through Cjson from the same fragments write_json
   emits. *)
let registry_sections () =
  let entries = List.rev !recorded in
  let runs =
    Reg.Cjson.List
      (List.map
         (fun e ->
           Reg.Cjson.Obj
             [
               ("id", Reg.Cjson.String e.entry_id);
               ("wall_sec", Reg.Cjson.Float e.wall_sec);
               ("busy_sec", Reg.Cjson.Float e.stats.Pool.busy_sec);
               ("jobs", Reg.Cjson.Int (List.length e.stats.Pool.timings));
               ("workers", Reg.Cjson.Int e.stats.Pool.jobs_used);
               ("speedup", Reg.Cjson.Float (speedup ~wall_sec:e.wall_sec e.stats));
             ])
         entries)
  in
  let micro_rows =
    String.concat ","
      (List.filter
         (fun s -> s <> "")
         [
           Micro.to_json_fragment !micro_results;
           Micro.pdes_to_json_fragment !pdes_results;
           Micro.vmm_to_json_fragment !vmm_results;
         ])
  in
  let micro = Reg.Cjson.of_string ("[" ^ micro_rows ^ "]") in
  let fairness =
    Reg.Cjson.List
      (List.map
         (fun (id, ratio) ->
           Reg.Cjson.Obj
             [ ("id", Reg.Cjson.String id); ("ratio", Reg.Cjson.Float ratio) ])
         !fairness_results)
  in
  Reg.Cjson.Obj
    (("runs", runs) :: ("micro", micro)
    ::
    (match !fairness_results with
    | [] -> []
    | _ -> [ ("fairness", fairness) ]))

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
    Reg.Cjson.Obj
      [
        ( "argv",
          Reg.Cjson.List
            (List.map
               (fun s -> Reg.Cjson.String s)
               (List.tl (Array.to_list Sys.argv))) );
        ("scale", Reg.Cjson.Float scale);
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
      ~label ~spec ~wall_sec ~busy_sec
      ~sections:(registry_sections ())
      ~exports:(match json with Some p -> [ p ] | None -> [])
      ()
  in
  (* Observation-only: the note goes to stderr so stdout stays
     byte-identical with recording on or off. *)
  match Reg.Registry.save_if_enabled r with
  | Some path -> Printf.eprintf "run recorded: %s\n%!" path
  | None -> ()

(* ----- Bechamel micro-benchmarks ----- *)

let pdes_suite () =
  let results, ok = Micro.run_pdes_all () in
  pdes_results := results;
  pdes_ok := ok;
  Micro.print_pdes (results, ok)

let pdes_vmm_suite () =
  let results, ok = Micro.run_vmm_all () in
  vmm_results := results;
  vmm_ok := ok;
  Micro.print_vmm (results, ok)

let microbenchmarks () =
  (* Event-queue throughput first: plain wall-clock over fixed op
     counts (bechamel's small quotas don't fit 10^7-pending setups). *)
  let eq = Micro.run () in
  micro_results := eq;
  Micro.print eq;
  pdes_suite ();
  pdes_vmm_suite ();
  let open Bechamel in
  let freq = Config.freq config in
  (* One Test.make per core primitive of the simulator. *)
  let test_heap =
    Test.make ~name:"heap push+pop (256 elems)"
      (Staged.stage (fun () ->
           let h = Sim_engine.Heap.create () in
           for i = 0 to 255 do
             Sim_engine.Heap.add h ~key:((i * 7919) mod 997) ~seq:i i
           done;
           let rec drain () =
             match Sim_engine.Heap.pop h with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let test_rng =
    Test.make ~name:"rng lognormal draw"
      (let rng = Sim_engine.Rng.create 1L in
       Staged.stage (fun () ->
           ignore (Sim_engine.Rng.lognormal_cv rng ~mean:100. ~cv:0.2)))
  in
  let test_engine =
    Test.make ~name:"engine schedule+fire (64 events)"
      (Staged.stage (fun () ->
           let e = Sim_engine.Engine.create () in
           for i = 1 to 64 do
             ignore (Sim_engine.Engine.schedule_at e ~time:i (fun () -> ()))
           done;
           Sim_engine.Engine.run e))
  in
  let test_estimator =
    Test.make ~name:"estimator adjusting event"
      (let slot = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
       let est =
         Sim_learn.Estimator.create
           (Sim_learn.Estimator.default_params ~slot_cycles:slot)
           (Sim_engine.Rng.create 2L)
       in
       let now = ref 0 in
       Staged.stage (fun () ->
           now := !now + slot;
           ignore (Sim_learn.Estimator.on_adjusting_event est ~now:!now)))
  in
  let test_histogram =
    Test.make ~name:"histogram add"
      (let h = Sim_stats.Histogram.create () in
       let i = ref 1 in
       Staged.stage (fun () ->
           i := ((!i * 1103515245) + 12345) land 0xFFFFFF;
           Sim_stats.Histogram.add h !i))
  in
  let test_pool =
    Test.make ~name:"pool map (32 jobs)"
      (Staged.stage (fun () ->
           ignore (Pool.map (fun x -> x * x) (List.init 32 Fun.id))))
  in
  let test_sim_slice =
    Test.make ~name:"simulate 100ms of LU@40% (asman)"
      (Staged.stage (fun () ->
           let c = Config.with_scale config 0.02 in
           let workload =
             Sim_workloads.Nas.workload
               (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq ~scale:0.02)
           in
           let s =
             Scenario.build
               (Config.with_work_conserving c false)
               ~sched:Config.Asman
               ~vms:
                 [ { Scenario.vm_name = "V"; weight = 64; vcpus = 4;
                     workload = Some workload } ]
           in
           ignore (Runner.run_window s ~sec:0.1)))
  in
  let tests =
    Test.make_grouped ~name:"asman" ~fmt:"%s %s"
      [
        test_heap; test_rng; test_engine; test_estimator; test_histogram;
        test_pool; test_sim_slice;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  print_endline "micro-benchmarks (nanoseconds per run, OLS estimate):";
  Hashtbl.iter
    (fun _measure_label per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.printf "  %-45s %14.1f ns\n" name est
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n" name)
        per_test)
    merged;
  print_newline ()

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
     [micro|pdes|pdes-vmm|ablations|chaos|<figure ids>]";
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
    | [] | [ ("micro" | "pdes" | "pdes-vmm" | "ablations" | "chaos") ] -> []
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
  | [ "pdes-vmm" ] -> pdes_vmm_suite ()
  | [ "ablations" ] -> run_ablations ()
  | [ "chaos" ] -> run_figures (Option.to_list (Experiments.find "resilience"))
  | _ ->
    List.iter
      (function Figure e -> run_experiment e | Ablation a -> run_ablation a)
      targets);
  save_cost_cache ();
  (match opts.json with Some path -> write_json path | None -> ());
  record_run ~ids:opts.ids ~json:opts.json;
  if not !pdes_ok then begin
    prerr_endline "pdes: -j1-vs-jN fingerprint mismatch";
    exit 1
  end;
  if not !vmm_ok then begin
    prerr_endline "pdes-vmm: w1-vs-wN decoupled digest mismatch";
    exit 1
  end
