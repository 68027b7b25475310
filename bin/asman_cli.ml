(* Command-line driver for the ASMan reproduction.

   Subcommands:
     list                      enumerate the figures and ablations
     experiment <id>... [...]  regenerate figures and ablation studies
                               ('all' = the paper's figures,
                               'ablations' = every ablation study)
     cluster [...]             simulate a datacenter of hosts with
                               placement and live migration
     run [...]                 run one ad-hoc scenario and print metrics
     trace [...]               dump a spinlock-wait trace as CSV (Fig 2/8 data)
     lhp [...]                 lock-holder-preemption diagnosis, Credit vs ASMan
     validate-json <file>      check an exported trace/metrics file parses
     learn                     demonstrate the Roth-Erev estimator on a
                               synthetic locality trace
     check / repro <file>      fuzz the scheduler against the SimCheck
                               oracles / replay one shrunk case
     compare OLD NEW           diff two runs (registry ids or record
                               files); exit 1 on regression
     report [--out FILE]       render the registry as a self-contained
                               HTML trend page

   The library renders what a run prints (Report.run, Decouple.render,
   Cluster.render); this file parses flags, calls the library, and
   writes exports and run records. run --attack prints the usual
   per-VM table: attained, entitled and theft cycles per VM reach only
   the run record (vm.<name>.attained_cycles / entitled_cycles /
   theft_cycles).

   run/experiment accept --trace[=FILE] --trace-cats CATS
   --metrics[=FILE] --profile; all default off, and with them off the
   simulation results are byte-identical to a build without the
   observability layer.

   run/experiment/cluster/check additionally drop a metadata-stamped
   record into the run registry (runs/ by default; ASMAN_RUNS=
   disables, see lib/registry); experiment --json FILE also writes it
   to FILE. Recording is observation-only: it happens after the
   simulation finished, the notes and host timings go to stderr, and
   stdout is byte-identical with recording on or off. *)

open Cmdliner
open Asman

(* Exit codes: 0 success, 1 run failure (exception or invariant
   violations), 2 usage error.  Raised for bad ids/arguments so the
   driver at the bottom can map them uniformly. *)
exception Usage_error of string

(* Counts, sizes and durations that only make sense positive. A zero or
   negative value is refused at parse time (exit 2) instead of being
   clamped, ignored or failing inside the run. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a non-negative integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let finite_float ~zero_ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && (x > 0. || (zero_ok && x = 0.)) -> Ok x
    | Some _ | None ->
      Error
        (`Msg
          (Printf.sprintf "%S is not a %s number" s
             (if zero_ok then "finite non-negative" else "positive")))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float = finite_float ~zero_ok:false

(* Thresholds and penalties: zero is meaningful, a negative or
   non-finite value is not. *)
let non_negative_float = finite_float ~zero_ok:true

let scale_arg =
  let doc = "Workload scale factor (fraction of the full benchmark size)." in
  Arg.(
    value
    & opt positive_float Config.default.Config.scale
    & info [ "scale" ] ~doc)

let seed_arg =
  let doc = "Random seed (simulations are deterministic per seed)." in
  Arg.(value & opt int64 Config.default.Config.seed & info [ "seed" ] ~doc)

let sched_arg =
  let doc = "Scheduler: credit, asman or con (static coscheduling)." in
  let parse s =
    match Config.sched_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt k = Format.pp_print_string fmt (Config.sched_name k) in
  Arg.(
    value
    & opt (conv (parse, print)) Config.Asman
    & info [ "sched" ] ~doc ~docv:"SCHED")

let jobs_arg =
  let doc =
    "Worker domains for experiment fan-out (default: $(b,ASMAN_JOBS) or \
     cores - 1; 1 = sequential). Results are identical at any worker count: \
     every data point builds its own engine from a fixed seed."
  in
  Arg.(
    value
    & opt positive_int (Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~doc ~docv:"N")

let queue_arg =
  let doc =
    "Event-queue backend: $(b,wheel) (hierarchical timing wheel, the \
     default) or $(b,heap) (binary-heap oracle kept for differential \
     testing). Both fire events in identical order, so results are \
     byte-identical; only speed differs."
  in
  let parse s =
    match Sim_engine.Engine.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown queue backend %S" s))
  in
  let print fmt k = Format.pp_print_string fmt (Sim_engine.Engine.kind_name k) in
  Arg.(
    value
    & opt (conv (parse, print)) Config.default.Config.engine_queue
    & info [ "engine-queue" ] ~doc ~docv:"BACKEND")

let chaos_arg =
  let doc =
    Printf.sprintf
      "Fault-injection profile: %s, or ipi-loss-<pct>, ipi-delay-<pct>, \
       vcrd-loss-<pct>."
      (String.concat ", " Sim_faults.Fault.known_names)
  in
  let parse s =
    match Sim_faults.Fault.of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown chaos profile %S" s))
  in
  let print fmt p = Format.pp_print_string fmt p.Sim_faults.Fault.pname in
  Arg.(
    value
    & opt (conv (parse, print)) Sim_faults.Fault.none
    & info [ "chaos" ] ~doc ~docv:"PROFILE")

let invariants_arg =
  let doc = "Runtime invariant checking: off, record or raise." in
  let parse s =
    match String.lowercase_ascii s with
    | "off" -> Ok Sim_vmm.Vmm.Off
    | "record" -> Ok Sim_vmm.Vmm.Record
    | "raise" -> Ok Sim_vmm.Vmm.Raise
    | _ -> Error (`Msg (Printf.sprintf "unknown invariant mode %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Sim_vmm.Vmm.Off -> "off"
      | Sim_vmm.Vmm.Record -> "record"
      | Sim_vmm.Vmm.Raise -> "raise")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Config.default.Config.invariants
    & info [ "invariants" ] ~doc ~docv:"MODE")

(* ----- big-host / parallel-simulation flags (run/experiment/cluster) ----- *)

let sim_jobs_arg =
  let doc =
    "Decoupled sub-hosts. N >= 2 partitions the host socket-aligned into N \
     sub-hosts and runs them in parallel on the windowed PDES fabric, with \
     work-stealing VM migration between them. Deterministic and \
     worker-count invariant; requires a clean run (no $(b,--chaos) or \
     $(b,--attack)) and a socket count divisible by N. 1 (the default) \
     runs one host on one sequential engine."
  in
  Arg.(value & opt positive_int 1 & info [ "sim-jobs" ] ~doc ~docv:"N")

let workers_arg =
  let doc =
    "Worker domains driving the PDES fabric: a decoupled run (capped at \
     $(b,--sim-jobs); default: all available cores) or a cluster run \
     (default 1). Changes wall-clock speed only, never the simulation \
     outcome."
  in
  Arg.(
    value & opt (some positive_int) None & info [ "workers" ] ~doc ~docv:"W")

let topology_arg =
  let doc =
    "Host topology as $(b,SOCKETSxCORES) (e.g. 8x16 = 128 PCPUs); default \
     is the paper's 2x4 testbed."
  in
  let parse s =
    match Sim_hw.Topology.of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "bad topology %S (want SxC)" s))
  in
  let print fmt t = Format.pp_print_string fmt (Sim_hw.Topology.to_string t) in
  Arg.(
    value
    & opt (conv (parse, print)) Config.default.Config.topology
    & info [ "topology" ] ~doc ~docv:"SxC")

let numa_arg =
  let doc =
    "Arm the NUMA host model: same-socket work-stealing preference and a \
     cross-socket relocation penalty. Default off (flat host)."
  in
  Arg.(value & flag & info [ "numa" ] ~doc)

(* One [Config.t] term for every simulating subcommand: scale and seed
   always, and the invariant mode, the host flags (engine queue,
   topology, NUMA) and the chaos profile on the subcommands that accept
   them. A flag a subcommand does not accept keeps its
   [Config.default] value. *)
let config_term ~invariants ~host ~chaos =
  let arg present term default = if present then term else Term.const default in
  let d = Config.default in
  let make scale seed invariants engine_queue topology numa faults =
    {
      (Config.with_seed (Config.with_scale d scale) seed) with
      Config.invariants;
      engine_queue;
      topology;
      numa;
      faults;
    }
  in
  Term.(
    const make $ scale_arg $ seed_arg
    $ arg invariants invariants_arg d.Config.invariants
    $ arg host queue_arg d.Config.engine_queue
    $ arg host topology_arg d.Config.topology
    $ arg host numa_arg d.Config.numa
    $ arg chaos chaos_arg d.Config.faults)

(* ----- observability flags (shared by run/experiment) ----- *)

let trace_arg =
  let doc =
    "Record a scheduler/guest event trace and write it as Chrome \
     trace_event JSON (open in Perfetto or chrome://tracing). $(docv) \
     defaults to trace.json."
  in
  Arg.(
    value
    & opt ~vopt:(Some "trace.json") (some string) None
    & info [ "trace" ] ~doc ~docv:"FILE")

let trace_cats_arg =
  let doc =
    "Comma-separated trace categories (sched, credit, vcrd, gang, ipi, \
     spin, fault, invariant) or 'all'."
  in
  Arg.(value & opt string "all" & info [ "trace-cats" ] ~doc ~docv:"CATS")

let metrics_arg =
  let doc =
    "Print a metrics-registry snapshot after the run ('-', the default \
     $(docv)) or write it as JSON to a file."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~doc ~docv:"FILE")

let profile_arg =
  let doc = "Print a wall-clock self-profile of the run's phases." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let write_file file s =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Resolve the obs flags into a [Config.obs] plus an export hook to
   call once the runs are done. [--trace] or [--metrics] turns
   [metrics] on, so every scenario publishes itself in [Obs_hub] as it
   is built, including those constructed deep inside experiment jobs.
   The hook returns the paths it wrote, for the run record. *)
let obs_setup trace trace_cats metrics profile =
  let trace_mask =
    match trace with
    | None -> 0
    | Some _ -> (
      match Sim_obs.Trace.mask_of_string trace_cats with
      | Ok m -> m
      | Error e -> raise (Usage_error e))
  in
  let prof =
    if profile then Some (Sim_obs.Prof.create ~clock:Unix.gettimeofday ())
    else None
  in
  let obs =
    {
      Config.trace_mask;
      trace_cap = Sim_obs.Trace.default_cap;
      metrics = trace <> None || metrics <> None;
      profile = prof;
    }
  in
  let export () =
    let entries = Obs_hub.drain () in
    (match trace with
    | None -> ()
    | Some file ->
      write_file file (Obs_hub.chrome_json entries);
      let events =
        List.fold_left
          (fun n (e : Obs_hub.entry) -> n + Sim_obs.Trace.length e.Obs_hub.trace)
          0 entries
      in
      Printf.eprintf "trace: wrote %s (%d scenarios, %d events)\n" file
        (List.length entries) events);
    (match metrics with
    | None -> ()
    | Some "-" -> print_string (Obs_hub.metrics_text entries)
    | Some file -> write_file file (Obs_hub.metrics_json entries));
    (match prof with
    | None -> ()
    | Some p ->
      print_string "self-profile:\n";
      print_string (Sim_obs.Prof.to_text p));
    Option.to_list trace @ List.filter (( <> ) "-") (Option.to_list metrics)
  in
  (obs, export)

let obs_term =
  Term.(const obs_setup $ trace_arg $ trace_cats_arg $ metrics_arg $ profile_arg)

(* ----- run-registry recording (lib/registry) ----- *)

module Reg = Sim_registry
module Json = Sim_obs.Json

(* One record per invocation, stamped with the config axes; [exports]
   are the paths of the files the invocation wrote (obs_setup's hook,
   check's repros), recorded as pointers. Failure to
   record in the registry never fails the run — the record is an
   observation; a [json] file the caller asked for must be written.
   [id] lets a caller mint the record id up front (check stamps it
   into repro provenance before recording). *)
let record_invocation ~kind ?id ~config ?workers ~label ~spec ~wall_sec
    ?busy_sec ?sections ?metrics ?(exports = []) ?json () =
  let r =
    Reg.Record.make
      ~id:
        (match id with
        | Some i -> i
        | None -> Reg.Registry.fresh_id ~kind)
      ~kind ~seed:config.Config.seed ~scale:config.Config.scale
      ~queue:(Sim_engine.Engine.kind_name config.Config.engine_queue)
      ~workers:(Option.value workers ~default:(Pool.jobs ()))
      ~sim_jobs:config.Config.sim_jobs
      ~topology:(Sim_hw.Topology.to_string config.Config.topology)
      ~numa:config.Config.numa
      ~accounting:(Sim_vmm.Vmm.accounting_name config.Config.accounting)
      ~chaos:config.Config.faults.Sim_faults.Fault.pname ~label ~spec ~wall_sec
      ?busy_sec ?sections ?metrics
      ~exports
      ()
  in
  Reg.Registry.publish ?json r

let kv_section entries =
  Json.List
    (List.map
       (fun (id, v) ->
         Json.Obj
           [ ("id", Json.String id); ("value", Json.Float v) ])
       entries)

(* ----- list ----- *)

(* Every id [experiment] accepts. The cluster experiment lives in
   [Sim_cluster.Figure] (the cluster layer depends on the asman
   library, so Experiments.all cannot list it); the CLI is where the
   registries meet. *)
let catalogue =
  Experiments.all @ [ Sim_cluster.Figure.experiment ] @ Ablations.all

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "%-16s  %s\n" e.Experiments.id e.Experiments.title)
      catalogue;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the figure experiments and ablations")
    Term.(const run $ const ())

(* ----- experiment ----- *)

(* [all] keeps its paper-figures meaning (the cluster figure runs by
   explicit id); [ablations] is every ablation study. Every id is
   resolved before anything runs, so a typo exits 2 instead of
   failing after the figures ahead of it. *)
let resolve_ids ids =
  let resolve = function
    | "all" -> Experiments.all
    | "ablations" -> Ablations.all
    | id -> List.filter (fun (e : Experiments.t) -> e.Experiments.id = id) catalogue
  in
  match List.filter (fun id -> List.is_empty (resolve id)) ids with
  | [] -> List.concat_map resolve ids
  | unknown ->
    raise
      (Usage_error
         (Printf.sprintf "unknown experiment %s; try 'list'"
            (String.concat ", " (List.map (Printf.sprintf "%S") unknown))))

let experiment_cmd =
  let ids_arg =
    let doc =
      "Figure or ablation id (e.g. fig7, ablate-oov), 'all' (the paper's \
       figures) or 'ablations' (every ablation study); repeatable."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let csv_arg =
    let doc = "Also print the measured series as CSV." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let json_arg =
    let doc =
      "Also write the invocation's run record to $(docv) (`asman compare` \
       reads it back)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run ids csv jobs json config (obs, export) =
    let experiments = resolve_ids ids in
    Pool.set_jobs jobs;
    let config = { config with Config.obs } in
    let fairness = ref [] and cluster = ref [] in
    (* One figure, with its Pool accounting: host timings go to stderr
       and the record, never to stdout. *)
    let run_one (e : Experiments.t) =
      let id = e.Experiments.id in
      Pool.reset_accounting ();
      let t0 = Unix.gettimeofday () in
      let outcome = e.Experiments.run config in
      let wall_sec = Unix.gettimeofday () -. t0 in
      let stats = Pool.accounting () in
      if id = "theft" then
        fairness := !fairness @ Experiments.fairness_entries outcome;
      if id = "cluster" then
        cluster := !cluster @ Sim_cluster.Figure.registry_entries outcome;
      print_string (Report.outcome e outcome);
      if csv then print_string (Report.series_csv outcome.Experiments.series);
      print_newline ();
      let jobs = List.length stats.Pool.timings in
      let speedup = Pool.speedup stats ~wall_sec in
      Printf.eprintf "(%s regenerated in %.1f s host wall: %s)\n%!" id wall_sec
        (match speedup with
        | Some x ->
          Printf.sprintf "%d jobs over %d workers, busy %.1f s, speedup %.2fx"
            jobs stats.Pool.jobs_used stats.Pool.busy_sec x
        | None -> "0 jobs, its points were shared with an earlier figure");
      ( wall_sec,
        stats.Pool.busy_sec,
        Json.Obj
          (List.filter_map Fun.id
             [
               Some ("id", Json.String id);
               Some ("wall_sec", Json.Float wall_sec);
               Some ("busy_sec", Json.Float stats.Pool.busy_sec);
               Some ("jobs", Json.Int jobs);
               Some ("workers", Json.Int stats.Pool.jobs_used);
               Option.map (fun x -> ("speedup", Json.Float x)) speedup;
               Some
                 ( "job_sec",
                   Json.List
                     (List.map
                        (fun (t : Pool.job_timing) -> Json.Float t.Pool.wall_sec)
                        stats.Pool.timings) );
             ]) )
    in
    let runs = List.map run_one experiments in
    let exports = export () in
    let total f = List.fold_left (fun acc r -> acc +. f r) 0. runs in
    let fairness_json (fid, ratio) =
      Json.Obj [ ("id", Json.String fid); ("ratio", Json.Float ratio) ]
    in
    let profile_json p =
      Json.List
        (List.map
           (fun (s : Sim_obs.Prof.section) ->
             Json.Obj
               [
                 ("label", Json.String s.Sim_obs.Prof.label);
                 ("total_sec", Json.Float s.Sim_obs.Prof.total_sec);
                 ("calls", Json.Int s.Sim_obs.Prof.calls);
               ])
           (Sim_obs.Prof.sections p))
    in
    record_invocation
      ~kind:(if ids = [ "theft" ] then "theft" else "experiment")
      ~config ~exports
      ~label:("experiment " ^ String.concat " " ids)
      ~spec:
        (Json.Obj
           [
             ("subcommand", Json.String "experiment");
             ("ids", Json.List (List.map (fun id -> Json.String id) ids));
           ])
      ~wall_sec:(total (fun (w, _, _) -> w))
      ~busy_sec:(total (fun (_, b, _) -> b))
      ~sections:
        (Json.Obj
           (List.filter_map Fun.id
              [
                Some ("runs", Json.List (List.map (fun (_, _, j) -> j) runs));
                (if !fairness = [] then None
                 else
                   Some
                     ("fairness", Json.List (List.map fairness_json !fairness)));
                (if !cluster = [] then None
                 else Some ("cluster", kv_section !cluster));
                Option.map
                  (fun p -> ("profile", profile_json p))
                  obs.Config.profile;
              ]))
      ?json ();
    0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate figures of the paper and run ablation studies")
    Term.(
      const run $ ids_arg $ csv_arg $ jobs_arg $ json_arg
      $ config_term ~invariants:true ~host:true ~chaos:true
      $ obs_term)

(* ----- cluster ----- *)

let cluster_cmd =
  let hosts_arg =
    let doc = "Number of simulated hosts (each a full VMM stack)." in
    Arg.(value & opt positive_int 8 & info [ "hosts" ] ~doc ~docv:"N")
  in
  let vms_arg =
    let doc = "Trace length: VMs arriving over the run." in
    Arg.(value & opt positive_int 24 & info [ "vms" ] ~doc ~docv:"N")
  in
  let policy_arg =
    let doc = "Placement policy: first-fit, best-fit or lifetime." in
    let parse s =
      match Sim_cluster.Placement.policy_of_name s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
    in
    let print fmt p =
      Format.pp_print_string fmt (Sim_cluster.Placement.policy_name p)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Sim_cluster.Placement.Lifetime_aware
      & info [ "policy" ] ~doc ~docv:"POLICY")
  in
  let dist_arg =
    let doc = "Lifetime distribution: uniform, bimodal or heavy." in
    let parse s =
      match Sim_cluster.Vtrace.dist_of_name s with
      | Some d -> Ok d
      | None -> Error (`Msg (Printf.sprintf "unknown distribution %S" s))
    in
    let print fmt d =
      Format.pp_print_string fmt (Sim_cluster.Vtrace.dist_name d)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Sim_cluster.Vtrace.Bimodal
      & info [ "dist" ] ~doc ~docv:"DIST")
  in
  let horizon_arg =
    let doc = "Simulated horizon in seconds." in
    Arg.(value & opt positive_float 2.0 & info [ "horizon" ] ~doc ~docv:"SEC")
  in
  let overcommit_arg =
    let doc = "VCPU-slot capacity per host as a multiple of its PCPUs." in
    Arg.(value & opt positive_float 2.0 & info [ "overcommit" ] ~doc ~docv:"X")
  in
  let no_rebalance_arg =
    let doc = "Disable pressure migrations (placement only)." in
    Arg.(value & flag & info [ "no-rebalance" ] ~doc)
  in
  let penalty_arg =
    let doc = "Lifetime-aware scorer's load-spreading penalty (seconds of \
               drain extension per unit utilization)." in
    Arg.(
      value & opt non_negative_float 0.75 & info [ "penalty" ] ~doc ~docv:"SEC")
  in
  let log_arg =
    let doc = "Print the controller's placement log." in
    Arg.(value & flag & info [ "log" ] ~doc)
  in
  let run hosts vms policy dist horizon overcommit no_rebalance penalty log
      sched workers config =
    let trace =
      Sim_cluster.Vtrace.generate ~max_vcpus:(Config.pcpus config)
        ~seed:config.Config.seed ~vms
        ~dist ~horizon_sec:horizon ()
    in
    let t =
      Sim_cluster.Cluster.build ~overcommit ~penalty_sec:penalty
        ~rebalance:(not no_rebalance) config ~sched ~policy ~hosts ~trace
    in
    (* Members are always hosts+1; outcomes are worker-count
       invariant. *)
    let workers = Option.value workers ~default:1 in
    let r = Sim_cluster.Cluster.run ~workers t ~horizon_sec:horizon in
    let errors = Sim_cluster.Cluster.conservation_errors t in
    print_string
      (Sim_cluster.Cluster.render ~log config ~sched ~dist r);
    List.iter (fun e -> Printf.printf "CONSERVATION: %s\n" e) errors;
    record_invocation ~kind:"cluster" ~config ~workers
      ~label:
        (Printf.sprintf "cluster %dh %dvm %s %s" hosts vms
           r.Sim_cluster.Cluster.cr_policy (Config.sched_name sched))
      ~spec:
        (Json.Obj
           [
             ("subcommand", Json.String "cluster");
             ("hosts", Json.Int hosts);
             ("vms", Json.Int vms);
             ("policy", Json.String r.Sim_cluster.Cluster.cr_policy);
             ("dist", Json.String (Sim_cluster.Vtrace.dist_name dist));
             ("horizon_sec", Json.Float horizon);
             ("sched", Json.String (Config.sched_name sched));
           ])
      ~wall_sec:r.Sim_cluster.Cluster.cr_wall_sec
      ~sections:
        (Json.Obj
           [
             ("cluster", kv_section (Sim_cluster.Cluster.report_metrics r));
           ])
      ();
    if errors = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Simulate a datacenter: N hosts on the PDES fabric, a seeded VM \
          arrival/departure trace, pluggable placement (first-fit / \
          best-fit / LAVA-style lifetime-aware) and live migration; \
          self-checks the cluster-conservation oracle")
    Term.(
      const run $ hosts_arg $ vms_arg $ policy_arg $ dist_arg $ horizon_arg
      $ overcommit_arg $ no_rebalance_arg $ penalty_arg $ log_arg $ sched_arg
      $ workers_arg
      $ config_term ~invariants:true ~host:true ~chaos:false)

(* ----- run ----- *)

let workload_conv =
  let doc =
    "bt|cg|ep|ft|mg|sp|lu (NAS), gcc|bzip2 (SPEC rate), jbb<N> (SPECjbb, N \
     warehouses)"
  in
  let parse s =
    let s = String.lowercase_ascii s in
    match Sim_workloads.Nas.of_name s with
    | Some b -> Ok (Scenario.W_nas (Sim_workloads.Nas.name b))
    | None ->
      if s = "gcc" || s = "bzip2" then Ok (Scenario.W_speccpu s)
      else if String.length s > 3 && String.sub s 0 3 = "jbb" then begin
        match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
        | Some n when n > 0 -> Ok (Scenario.W_jbb { warehouses = n })
        | Some _ | None -> Error (`Msg "jbb<N> needs a positive N")
      end
      else Error (`Msg (Printf.sprintf "unknown workload %S (%s)" s doc))
  in
  let print fmt (w : Scenario.workload_desc) =
    Format.pp_print_string fmt
      (match w with
      | Scenario.W_nas n -> String.lowercase_ascii n
      | Scenario.W_speccpu n -> n
      | Scenario.W_jbb { warehouses } -> Printf.sprintf "jbb%d" warehouses
      | _ -> "?")
  in
  Arg.conv (parse, print)

let run_cmd =
  let vms_arg =
    let doc = "Workload per VM (repeatable): each VM gets 4 VCPUs." in
    Arg.(
      value
      & opt_all workload_conv [ Scenario.W_nas "LU" ]
      & info [ "vm" ] ~doc ~docv:"WORKLOAD")
  in
  let weight_arg =
    let doc = "Weight of every guest VM (Dom0 is fixed at 256)." in
    Arg.(value & opt positive_int 256 & info [ "weight" ] ~doc)
  in
  let capped_arg =
    let doc = "Non-work-conserving mode (strict proportional cap)." in
    Arg.(value & flag & info [ "capped" ] ~doc)
  in
  let rounds_arg =
    let doc = "Rounds of each VM's workload to wait for." in
    Arg.(value & opt positive_int 1 & info [ "rounds" ] ~doc)
  in
  let max_sec_arg =
    let doc = "Simulated-time budget in seconds." in
    Arg.(value & opt positive_float 120. & info [ "max-sec" ] ~doc)
  in
  let accounting_arg =
    let doc =
      "Credit accounting: $(b,precise) (span-exact billing, the default) or \
       $(b,sampled) (Xen-style periodic-tick sampling — the occupant at each \
       tick pays a full quantum, which scheduler attacks exploit)."
    in
    Arg.(
      value
      & opt (enum [ ("precise", "precise"); ("sampled", "sampled") ]) "precise"
      & info [ "accounting" ] ~doc ~docv:"MODE")
  in
  let attack_arg =
    let doc =
      "Add an adversarial guest VM (weight 128): $(b,dodge) (tick-dodging), \
       $(b,steal) (low-rate cycle stealing) or $(b,launder) (a coordinated \
       phase-offset pair). Attack programs never finish a round, so the run \
       measures a fixed window of $(b,--max-sec) simulated seconds and \
       prints each VM's online rate against its expected share. Attained, \
       entitled and theft cycles per VM go to the run record only \
       ($(b,vm.)$(i,NAME)$(b,.attained_cycles), $(b,.entitled_cycles), \
       $(b,.theft_cycles)). Try with $(b,--accounting sampled) vs the \
       precise default."
    in
    Arg.(
      value
      & opt
          (some (enum [ ("dodge", "dodge"); ("steal", "steal"); ("launder", "launder") ]))
          None
      & info [ "attack" ] ~doc ~docv:"ATTACK")
  in
  let run vms weight capped rounds max_sec sched sim_jobs workers accounting
      attack config (obs, export) =
    let config = { config with Config.obs; sim_jobs } in
    let config = Config.with_work_conserving config (not capped) in
    let config =
      match Sim_vmm.Vmm.accounting_of_name accounting with
      | Some a -> { config with Config.accounting = a }
      | None -> assert false (* Arg.enum already validated *)
    in
    let attack_specs =
      match attack with
      | None -> []
      | Some a ->
        List.map
          (fun (n, desc) ->
            Scenario.vm ~weight:128 ~vcpus:1 ~name:(n ^ ":attack-" ^ a)
              (Scenario.workload_of_desc config desc))
          (Experiments.theft_attackers a)
    in
    let specs = attack_specs @ Scenario.numbered_vms config ~weight vms in
    let vm_names =
      List.map (fun (s : Scenario.vm_spec) -> s.Scenario.vm_name) specs
    in
    if sim_jobs >= 2 then begin
      if attack <> None then
        raise
          (Usage_error
             "--sim-jobs >= 2 does not support --attack (fixed-window attack \
              runs need a single host)");
      if not (Sim_faults.Fault.is_none config.Config.faults) then
        raise
          (Usage_error
             "--sim-jobs >= 2 does not support --chaos (fault injection \
              targets a single host)");
      let d =
        try Decouple.build config ~sched ~vms:specs
        with Invalid_argument msg -> raise (Usage_error msg)
      in
      let r = Decouple.run ?workers d ~rounds ~max_sec in
      print_string (Decouple.render ~sched d r);
      let exports = export () in
      record_invocation ~kind:"run" ~config ~workers:r.Decouple.rp_workers ~exports
        ~label:
          (Printf.sprintf "run-decoupled %s %s" (Config.sched_name sched)
             (String.concat "," vm_names))
        ~spec:
          (Json.Obj
             [
               ("subcommand", Json.String "run");
               ("decouple", Json.Bool true);
               ("sched", Json.String (Config.sched_name sched));
               ( "vms",
                 Json.List
                   (List.map (fun n -> Json.String n) vm_names) );
               ("weight", Json.Int weight);
               ("rounds", Json.Int rounds);
               ("max_sec", Json.Float max_sec);
             ])
        ~wall_sec:r.Decouple.rp_wall_sec
        ~metrics:(Decouple.report_metrics r) ();
      0
    end
    else begin
    let scenario = Scenario.build config ~sched ~vms:specs in
    let host_t0 = Unix.gettimeofday () in
    let metrics =
      (* Attack programs never finish a round by design, so attack runs
         measure a fixed window of [--max-sec] simulated seconds. *)
      if attack <> None then Runner.run_window scenario ~sec:max_sec
      else Runner.run_rounds scenario ~rounds ~max_sec
    in
    let host_wall = Unix.gettimeofday () -. host_t0 in
    print_string (Report.run ~sched scenario metrics);
    let exports = export () in
    record_invocation ~kind:"run" ~config ~exports
      ~label:
        (Printf.sprintf "run %s %s" (Config.sched_name sched)
           (String.concat "," vm_names))
      ~spec:
        (Json.Obj
           [
             ("subcommand", Json.String "run");
             ("sched", Json.String (Config.sched_name sched));
             ( "vms",
               Json.List
                 (List.map (fun n -> Json.String n) vm_names) );
             ("weight", Json.Int weight);
             ("capped", Json.Bool capped);
             ("rounds", Json.Int rounds);
             ("max_sec", Json.Float max_sec);
             ( "attack",
               match attack with
               | None -> Json.Null
               | Some a -> Json.String a );
           ])
      ~wall_sec:host_wall
      ~metrics:(Runner.metrics_kv metrics) ();
    if metrics.Runner.invariant_violations > 0 then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an ad-hoc scenario")
    Term.(
      const run $ vms_arg $ weight_arg $ capped_arg $ rounds_arg $ max_sec_arg
      $ sched_arg $ sim_jobs_arg $ workers_arg $ accounting_arg $ attack_arg
      $ config_term ~invariants:true ~host:true ~chaos:true
      $ obs_term)

(* ----- trace ----- *)

let trace_cmd =
  let weight_arg =
    let doc = "VM weight: 256/128/64/32 give 100/66.7/40/22.2% online." in
    Arg.(value & opt positive_int 32 & info [ "weight" ] ~doc)
  in
  let bench_arg =
    let doc = "NAS benchmark to trace." in
    Arg.(value & opt string "lu" & info [ "bench" ] ~doc)
  in
  let run weight bench sched config =
    match Sim_workloads.Nas.of_name bench with
    | None ->
      raise (Usage_error (Printf.sprintf "unknown NAS benchmark %S" bench))
    | Some b ->
      let scenario =
        Experiments.single_vm_scenario config ~sched ~weight
          ~workload:(Experiments.nas_workload config b)
      in
      let rows = ref [] in
      Sim_guest.Monitor.on_traced_wait (Runner.monitor_of scenario ~vm:"V1")
        (fun e -> rows := e :: !rows);
      let (_ : Runner.metrics) =
        Runner.run_rounds scenario ~rounds:1 ~max_sec:600.
      in
      print_string (Report.trace_csv (List.rev !rows));
      0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Dump the spinlock waiting-time trace (Fig 2/8 raw data) as CSV")
    Term.(
      const run $ weight_arg $ bench_arg $ sched_arg
      $ config_term ~invariants:true ~host:false ~chaos:true)

(* ----- lhp ----- *)

let lhp_cmd =
  let sec_arg =
    let doc = "Simulated observation window in seconds." in
    Arg.(value & opt positive_float 5. & info [ "sec" ] ~doc)
  in
  let vms_count_arg =
    let doc = "Number of identical concurrent (LU) VMs." in
    Arg.(value & opt positive_int 3 & info [ "vms" ] ~doc)
  in
  (* One diagnosis: run the same overcommitted concurrent workload
     under a scheduler with Sched+Spin tracing on, then join the
     spinlock waits against the scheduling timeline. *)
  let diagnose ~base ~sec ~nvms sched =
    let mask =
      Sim_obs.Trace.(cat_bit Sched lor cat_bit Spin lor cat_bit Gang)
    in
    let config =
      {
        base with
        Config.obs = { Config.obs_off with Config.trace_mask = mask };
      }
    in
    let specs =
      List.init nvms (fun i ->
          Scenario.vm ~name:(Printf.sprintf "V%d:lu" (i + 1))
            (Experiments.nas_workload config Sim_workloads.Nas.LU))
    in
    let scenario = Scenario.build config ~sched ~vms:specs in
    let (_ : Runner.metrics) = Runner.run_window scenario ~sec in
    let entries =
      Sim_obs.Trace.entries (Sim_engine.Engine.trace scenario.Scenario.engine)
    in
    let timeline =
      Sim_obs.Timeline.of_entries ~pcpus:(Config.pcpus config) entries
    in
    let vm_names =
      (scenario.Scenario.dom0.Sim_vmm.Domain.id, "Domain-0")
      :: List.map
           (fun (i : Scenario.vm_instance) ->
             (i.Scenario.domain.Sim_vmm.Domain.id, i.Scenario.spec.Scenario.vm_name))
           scenario.Scenario.vms
    in
    (Sim_obs.Lhp.classify ~timeline entries, vm_names)
  in
  let run sec nvms base =
    let schedulers = [ Config.Credit; Config.Asman ] in
    let reports =
      List.map
        (fun sched ->
          let report, vm_names = diagnose ~base ~sec ~nvms sched in
          (sched, report, vm_names))
        schedulers
    in
    List.iter
      (fun (sched, report, vm_names) ->
        Printf.printf "== %s ==\n%s\n" (Config.sched_name sched)
          (Sim_obs.Lhp.to_text ~vm_names report))
      reports;
    (match reports with
    | [ (_, credit, _); (_, asman, _) ] ->
      Printf.printf
        "preempted-holder share: credit %.3f -> asman %.3f (%s)\n"
        credit.Sim_obs.Lhp.preempted_share asman.Sim_obs.Lhp.preempted_share
        (if asman.Sim_obs.Lhp.preempted_share
            <= credit.Sim_obs.Lhp.preempted_share
         then "coscheduling removes lock-holder preemption"
         else "unexpected: share grew under coscheduling")
    | _ -> ());
    0
  in
  Cmd.v
    (Cmd.info "lhp"
       ~doc:
         "Diagnose lock-holder preemption: classify over-threshold spinlock \
          waits against the scheduling timeline, Credit vs ASMan")
    Term.(
      const run $ sec_arg $ vms_count_arg
      $ config_term ~invariants:false ~host:false ~chaos:false)

(* ----- validate-json ----- *)

let validate_json_cmd =
  let file_arg =
    let doc = "JSON file to validate ('-' = stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let contents =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    match Json.validate contents with
    | Ok () ->
      Printf.printf "%s: valid JSON\n" file;
      0
    | Error msg ->
      Printf.eprintf "%s: invalid JSON: %s\n" file msg;
      1
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:"Check that a file (e.g. an exported trace) is well-formed JSON")
    Term.(const run $ file_arg)

(* ----- check / repro (SimCheck) ----- *)

let mutate_arg =
  let doc =
    Printf.sprintf
      "Arm a seeded scheduler mutation before running (oracle validation): \
       %s. A correct oracle set must fail under each of these."
      (String.concat ", " (List.map Sim_vmm.Mutation.to_name Sim_vmm.Mutation.all))
  in
  let parse s =
    match Sim_vmm.Mutation.of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mutation %S" s))
  in
  let print fmt m = Format.pp_print_string fmt (Sim_vmm.Mutation.to_name m) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "mutate" ] ~doc ~docv:"MUTATION")

let check_cmd =
  let cases_arg =
    let doc = "Number of random cases to generate and run." in
    Arg.(value & opt positive_int 100 & info [ "cases" ] ~doc ~docv:"N")
  in
  let timeout_arg =
    let doc =
      "Per-case wall-clock limit in seconds; a case over the limit is \
       reported as a failure with its seed."
    in
    Arg.(value & opt positive_float 120. & info [ "timeout" ] ~doc ~docv:"SEC")
  in
  let shrink_budget_arg =
    let doc = "Maximum simulations the shrinker may spend per failure." in
    Arg.(
      value & opt non_negative_int 200
      & info [ "shrink-budget" ] ~doc ~docv:"N")
  in
  let repro_dir_arg =
    let doc = "Directory for shrunk repro case files." in
    Arg.(value & opt string "." & info [ "repro-dir" ] ~doc ~docv:"DIR")
  in
  let run cases seed jobs timeout shrink_budget repro_dir mutate =
    Sim_vmm.Mutation.set mutate;
    (* Mint the record id before the run so repro provenance can name
       the record that will describe it; no id when recording is off
       (a stamp pointing at a record that won't exist would lie). *)
    let record_id =
      match Reg.Registry.dir () with
      | None -> None
      | Some _ -> Some (Reg.Registry.fresh_id ~kind:"check")
    in
    let host_t0 = Unix.gettimeofday () in
    let report =
      Sim_check.Check.run ~jobs ~timeout_sec:timeout ~shrink_budget ~cases
        ~seed ()
    in
    let host_wall = Unix.gettimeofday () -. host_t0 in
    List.iter
      (fun (t : Sim_check.Check.timeout_report) ->
        Printf.printf
          "TIMEOUT: case %d (case seed %Ld) exceeded %.0f s\n"
          t.Sim_check.Check.tr_index t.Sim_check.Check.tr_seed
          t.Sim_check.Check.tr_limit_sec)
      report.Sim_check.Check.timeouts;
    List.iter
      (fun fr -> print_endline (Sim_check.Check.failure_summary fr))
      report.Sim_check.Check.failures;
    let repros =
      Sim_check.Check.write_repros ~dir:repro_dir ?record_id report
    in
    List.iter (Printf.printf "repro written: %s\n") repros;
    record_invocation ~kind:"check" ?id:record_id ~exports:repros
      ~config:(Config.with_seed Config.default seed)
      ~workers:jobs ~label:(Printf.sprintf "check %d cases" cases)
      ~spec:
        (Json.Obj
           [
             ("subcommand", Json.String "check");
             ("cases", Json.Int cases);
             ("timeout_sec", Json.Float timeout);
             ("shrink_budget", Json.Int shrink_budget);
             ( "mutate",
               match mutate with
               | None -> Json.Null
               | Some m -> Json.String (Sim_vmm.Mutation.to_name m) );
           ])
      ~wall_sec:host_wall
      ~sections:
        (Json.Obj
           [ ("check", kv_section (Sim_check.Check.summary_kv report)) ])
      ();
    if Sim_check.Check.passed report then begin
      Printf.printf "check: %d cases, seed %Ld: all oracles passed\n"
        report.Sim_check.Check.cases seed;
      0
    end
    else 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fuzz the scheduler: run N random full-stack scenarios against the \
          SimCheck oracle catalogue, shrinking any failure to a minimal \
          JSON repro")
    Term.(
      const run $ cases_arg $ seed_arg $ jobs_arg $ timeout_arg
      $ shrink_budget_arg $ repro_dir_arg $ mutate_arg)

let repro_cmd =
  let file_arg =
    let doc = "SimCheck case file (JSON) to replay." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file mutate =
    Sim_vmm.Mutation.set mutate;
    let spec =
      try Sim_check.Spec.load file with
      | Sys_error e -> raise (Usage_error e)
      | Json.Parse_error e ->
        raise (Usage_error (Printf.sprintf "%s: %s" file e))
    in
    (match spec.Sim_check.Spec.provenance with
    | None -> ()
    | Some p ->
      Printf.printf "found by: %s (case seed %Ld)\n"
        (Option.value p.Sim_check.Spec.pv_record ~default:"unrecorded run")
        p.Sim_check.Spec.pv_seed);
    match Sim_check.Case.run spec with
    | [] ->
      Printf.printf "%s: all oracles passed\n" file;
      0
    | failures ->
      List.iter
        (fun (f : Sim_check.Oracle.failure) ->
          Printf.printf "FAIL %s: %s\n" f.Sim_check.Oracle.oracle
            f.Sim_check.Oracle.message)
        failures;
      1
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Replay a SimCheck case file deterministically and re-judge it \
          against the oracles")
    Term.(const run $ file_arg $ mutate_arg)

(* ----- learn ----- *)

let learn_cmd =
  let run seed =
    let rng = Sim_engine.Rng.create seed in
    let freq = Sim_engine.Units.ghz_f 2.33 in
    let slot = Sim_engine.Units.cycles_of_ms freq 10 in
    let profile = Sim_learn.Locality.default_profile ~slot_cycles:slot in
    let trace = Sim_learn.Locality.generate rng profile ~n:200 in
    let estimator =
      Sim_learn.Estimator.create
        (Sim_learn.Estimator.default_params ~slot_cycles:slot)
        (Sim_engine.Rng.split rng)
    in
    let windows =
      List.map
        (fun time -> (time, Sim_learn.Estimator.on_adjusting_event estimator ~now:time))
        (Sim_learn.Locality.event_times trace)
    in
    let hit, excess = Sim_learn.Locality.coverage trace ~windows in
    Printf.printf
      "localities: %d   adjusting events: %d\n\
       coverage of locality time by estimated windows: %.1f%%\n\
       over-coscheduling (window time outside localities): %.1f%%\n"
      (List.length trace.Sim_learn.Locality.localities)
      (Sim_learn.Estimator.events_seen estimator)
      (100. *. hit) (100. *. excess);
    let candidates = Sim_learn.Estimator.candidates estimator in
    let props = Sim_learn.Estimator.propensities estimator in
    Array.iteri
      (fun i c ->
        Printf.printf "  x = %6.1f ms   propensity %.4f\n"
          (Sim_engine.Units.ms_of_cycles freq c)
          props.(i))
      candidates;
    0
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Exercise the Roth-Erev estimator on a synthetic locality trace")
    Term.(const run $ seed_arg)

(* ----- compare ----- *)

let runs_dir_arg =
  let doc =
    "Registry directory for resolving bare run ids (default: $(b,ASMAN_RUNS) \
     or runs/)."
  in
  Arg.(value & opt (some string) None & info [ "runs-dir" ] ~doc ~docv:"DIR")

let compare_cmd =
  let old_arg =
    let doc =
      "Baseline: a run id or a record file (experiment --json writes one)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc)
  in
  let new_arg =
    let doc = "Candidate, same forms as $(i,OLD)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold_arg =
    let doc = "Regression threshold in percent (wall time, micro throughput)." in
    Arg.(
      value
      & opt non_negative_float Reg.Compare.default.Reg.Compare.threshold
      & info [ "threshold" ] ~doc ~docv:"PCT")
  in
  let min_wall_arg =
    let doc = "Runs with an old wall time under $(docv) seconds are not gated." in
    Arg.(
      value
      & opt non_negative_float Reg.Compare.default.Reg.Compare.min_wall
      & info [ "min-wall" ] ~doc ~docv:"SEC")
  in
  let fairness_threshold_arg =
    let doc = "Symmetric gate on fairness-ratio drift, in percent." in
    Arg.(
      value
      & opt non_negative_float Reg.Compare.default.Reg.Compare.fairness_threshold
      & info [ "fairness-threshold" ] ~doc ~docv:"PCT")
  in
  let strict_sections_arg =
    let doc =
      "Treat a metric section that disappeared (present in OLD, absent in \
       NEW) as a regression: a broken suite must not pass by emitting fewer \
       sections."
    in
    Arg.(value & flag & info [ "strict-sections" ] ~doc)
  in
  let run old_file new_file threshold min_wall fairness_threshold
      strict_sections runs_dir =
    let resolve s =
      try Reg.Registry.resolve ?dir:runs_dir s with
      | Sys_error msg -> raise (Usage_error msg)
      | Json.Parse_error msg ->
        raise (Usage_error (Printf.sprintf "%s: %s" s msg))
    in
    let old_r = resolve old_file and new_r = resolve new_file in
    (match Reg.Compare.axis_mismatches old_r new_r with
    | [] -> ()
    | diffs ->
      raise
        (Usage_error
           ("refusing to compare runs whose axes differ: "
           ^ String.concat ", " diffs)));
    let t =
      {
        Reg.Compare.threshold;
        min_wall;
        fairness_threshold;
        strict_sections;
      }
    in
    let result = Reg.Compare.records t old_r new_r in
    print_string result.Reg.Compare.text;
    if result.Reg.Compare.regressions > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two runs (performance, fairness and fuzzer health); exit 1 on \
          regression")
    Term.(
      const run $ old_arg $ new_arg $ threshold_arg $ min_wall_arg
      $ fairness_threshold_arg $ strict_sections_arg $ runs_dir_arg)

(* ----- report ----- *)

let report_cmd =
  let out_arg =
    let doc = "Output file for the HTML page." in
    Arg.(value & opt string "report.html" & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let run out runs_dir =
    let records = Reg.Registry.list ?dir:runs_dir () in
    if records = [] then
      raise
        (Usage_error
           (Printf.sprintf "no records in %s — run something first"
              (match runs_dir with
              | Some d -> d
              | None -> Option.value (Reg.Registry.dir ()) ~default:"runs")));
    let html = Reg.Html.report records in
    (* The page promises to be self-contained; hold it to that. *)
    (match Reg.Html.validate_html html with
    | Ok () -> ()
    | Error msg -> failwith (Printf.sprintf "generated report invalid: %s" msg));
    write_file out html;
    Printf.printf "report: wrote %s (%d runs)\n" out (List.length records);
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the run registry as a self-contained HTML page of metric \
          trend lines (no external assets)")
    Term.(const run $ out_arg $ runs_dir_arg)

let main =
  let doc = "ASMan: dynamic adaptive scheduling for virtual machines (HPDC'11)" in
  Cmd.group (Cmd.info "asman_cli" ~doc)
    [
      list_cmd; experiment_cmd; cluster_cmd; run_cmd; trace_cmd;
      lhp_cmd; validate_json_cmd; learn_cmd; check_cmd; repro_cmd; compare_cmd;
      report_cmd;
    ]

(* Exit codes: 0 success, 1 run failure, 2 usage error. *)
let () =
  let code =
    try
      match Cmd.eval_value ~catch:false main with
      | Ok (`Ok code) -> code
      | Ok (`Help | `Version) -> 0
      | Error (`Parse | `Term) -> 2
      | Error `Exn -> 1
    with
    | Usage_error msg ->
      Printf.eprintf "asman_cli: %s\n" msg;
      2
    | e ->
      Printf.eprintf "asman_cli: run failed: %s\n" (Printexc.to_string e);
      1
  in
  exit code
