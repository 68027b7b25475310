(* The three benchmark workloads. Each is a closed batch: a fixed amount
   of simulated work built from the seed, run to completion.

   A rep lasts one to three seconds on the 2-vCPU VM the baseline was
   measured on, so that a run holds a dozen or more timed reps and its
   median stands for the whole run; the median of the three reps that
   fit when a rep lasts ten seconds is one rep's value.

   A workload is split the way a user's run is: [prepare] builds the
   inputs (traces, specs, simulation stacks) and is timed as set-up;
   the thunk it returns runs the batch and is timed as one rep. The
   returned outcome carries a digest of the simulated result, which
   must be equal across the reps of a run and, at seed 42, equal to
   the golden below. Only public lib/ interfaces are used. *)

open Asman
module Metrics = Sim_obs.Metrics

type outcome = {
  digest : string;  (* simulated result; equal across reps of one seed *)
  failures : string list;  (* oracle errors *)
  events : int;  (* simulated events fired; 0 when not observable *)
  counters : (string * float) list;  (* per-layer counts of the rep *)
}

type size = Full | Smoke

(* ----- shared helpers ----- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Sum Int samples of a metrics snapshot by "subsystem/name", folding
   the per-VM keys together. *)
let sum_metrics snapshots =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (s : Metrics.sample) ->
         match s.Metrics.value with
         | Metrics.Int v ->
           let k = s.Metrics.key.Metrics.subsystem ^ "/" ^ s.Metrics.key.Metrics.name in
           Hashtbl.replace tbl k
             (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)
         | Metrics.Hist _ -> ()))
    snapshots;
  fun k -> Option.value (Hashtbl.find_opt tbl k) ~default:0

(* The vmm / guest / learn pins, read from member metrics registries. *)
let stack_counters get =
  [
    ("vmm.ctx_switches", float_of_int (get "vmm/ctx_switches"));
    ("vmm.ipis", float_of_int (get "hw/ipis_sent"));
    ("guest.spin_over_threshold", float_of_int (get "guest/over_threshold"));
    ("learn.adjusting_events", float_of_int (get "guest/adjusting_events"));
  ]

(* ----- figs: every experiment of the paper's evaluation ----- *)

(* Scale 0.25 is the default users regenerate the figures at. *)
let figs_scale = function Full -> 0.25 | Smoke -> 0.02

(* Traced runs register every scenario in Obs_hub (metrics on, tracing
   off) so the rep's event count can be summed; [profile] charges the
   runner's engine.run / collect sections. Neither changes results. *)
let figs_config ?profile ~seed size =
  let c = Config.with_seed (Config.with_scale Config.default (figs_scale size)) seed in
  match profile with
  | None -> c
  | Some p ->
    {
      c with
      Config.obs = { Config.obs_off with Config.metrics = true; profile = Some p };
    }

(* Figs builds its scenario stacks inside its Pool jobs, out of the
   benchmark's reach; its set-up sample is the per-job set-up those
   jobs repeat: the paper's testbed (Dom0 + a 4-VCPU LU guest) built
   under every scheduler. Work moved into Scenario.build shows here. *)
let figs_setup config =
  let freq = Config.freq config in
  let lu =
    Sim_workloads.Nas.workload
      (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq ~scale:config.Config.scale)
  in
  List.iter
    (fun sched ->
      ignore
        (Scenario.build config ~sched
           ~vms:[ Scenario.vm ~name:"V1" ~weight:256 ~vcpus:4 lu ]))
    [ Config.Credit; Config.Asman; Config.Cosched_static; Config.Asman_oov ]

(* fig10 (fixed 0.6 s windows of SPECjbb) and resilience (fixed fault
   rounds) do not shrink with the scale and take three quarters of a
   pass over all 13 experiments: about 8 of its 10 s here. With them a
   rep would last ten seconds; the other eleven take about three.
   Smoke size keeps two quick experiments. *)
let figs_experiments = function
  | Full ->
    List.filter
      (fun (e : Experiments.t) ->
        not (List.mem e.Experiments.id [ "fig10"; "resilience" ]))
      Experiments.all
  | Smoke ->
    List.filter
      (fun (e : Experiments.t) -> List.mem e.Experiments.id [ "fig1a"; "fig7" ])
      Experiments.all

let figs_prepare ?profile ~seed size =
  let config = figs_config ?profile ~seed size in
  figs_setup config;
  fun ~workers ->
    Pool.set_jobs workers;
    let buf = Buffer.create 65536 in
    let snaps = ref [] in
    List.iter
      (fun (e : Experiments.t) ->
        Spans.with_span ~layer:"runner" ("figs." ^ e.Experiments.id) (fun () ->
            let o = e.Experiments.run config in
            Spans.with_span ~layer:"check" "Report.outcome" (fun () ->
                Buffer.add_string buf (Report.outcome e o)));
        if profile <> None then
          snaps :=
            List.map
              (fun (h : Obs_hub.entry) -> Metrics.snapshot h.Obs_hub.metrics)
              (Obs_hub.drain ())
            @ !snaps)
      (figs_experiments size);
    let get = sum_metrics !snaps in
    {
      digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      failures = [];
      events = get "engine/events_fired";
      counters = (if profile = None then [] else stack_counters get);
    }

(* ----- decoupled: one big ASMan host on the PDES fabric ----- *)

let decoupled_rounds = function Full -> 20 | Smoke -> 1
let decoupled_max_sec = function Full -> 600. | Smoke -> 0.1

let decoupled_config ~seed size =
  {
    (Config.with_seed Config.default seed) with
    Config.topology = Sim_hw.Topology.make ~sockets:8 ~cores_per_socket:16;
    scale = (match size with Full -> 0.25 | Smoke -> 0.05);
  }

(* 20 VMs of 8 VCPUs (LU/EP/CG/gcc x5, weight 256) overcommit the
   128 PCPUs; gang parking windows make VMs quiescent, hence stealable
   across the four shards. *)
let decoupled_vms config =
  List.init 20 (fun i ->
      let name, desc =
        match i mod 4 with
        | 0 -> ("LU", Scenario.W_nas "LU")
        | 1 -> ("EP", Scenario.W_nas "EP")
        | 2 -> ("CG", Scenario.W_nas "CG")
        | _ -> ("gcc", Scenario.W_speccpu "gcc")
      in
      {
        Scenario.vm_name = Printf.sprintf "V%d:%s" (i + 1) name;
        weight = 256;
        vcpus = 8;
        workload = Some (Scenario.workload_of_desc config desc);
      })

let decoupled_prepare ~seed size =
  let config =
    { (decoupled_config ~seed size) with Config.sim_jobs = 4; decouple = true }
  in
  let d =
    Spans.with_span ~layer:"decouple" "Decouple.build" (fun () ->
        Decouple.build config ~sched:Config.Asman ~vms:(decoupled_vms config))
  in
  fun ~workers ->
    let r =
      Spans.with_span ~layer:"fabric" "Decouple.run" (fun () ->
          Decouple.run ~workers d ~rounds:(decoupled_rounds size)
            ~max_sec:(decoupled_max_sec size))
    in
    let get =
      sum_metrics
        (List.init (Decouple.shards d) (fun i ->
             Metrics.snapshot (Sim_vmm.Vmm.metrics (Decouple.scenario d i).Scenario.vmm)))
    in
    let f = float_of_int in
    {
      digest = Printf.sprintf "%x/%d" r.Decouple.rp_digest r.Decouple.rp_events;
      failures = [];
      events = r.Decouple.rp_events;
      counters =
        [
          ("fabric.windows", f r.Decouple.rp_windows);
          ("fabric.cross_posts", f r.Decouple.rp_cross_posts);
          ("fabric.max_window_mail", f r.Decouple.rp_max_window_mail);
          ("decouple.steal_reqs", f r.Decouple.rp_steal_reqs);
          ("decouple.grants", f r.Decouple.rp_grants);
          ("decouple.nacks", f r.Decouple.rp_nacks);
        ]
        @ stack_counters get;
    }

(* The coupled reference: the same VMs on one sequential engine over
   the whole host, for the sharding speedup (coupled / decoupled w1). *)
let coupled_reference ~seed size =
  let config = decoupled_config ~seed size in
  let s =
    Spans.with_span ~layer:"runner" "Scenario.build" (fun () ->
        Scenario.build config ~sched:Config.Asman ~vms:(decoupled_vms config))
  in
  let m =
    Spans.with_span ~layer:"engine" "Runner.run_rounds" (fun () ->
        Runner.run_rounds s ~rounds:(decoupled_rounds size) ~max_sec:(decoupled_max_sec size))
  in
  m.Runner.events_fired

(* ----- cluster: a datacenter with lifetime-aware placement ----- *)

let cluster_hosts = function Full -> 16 | Smoke -> 3
let cluster_vms = function Full -> 32 | Smoke -> 6
let cluster_horizon = function Full -> 20. | Smoke -> 1.5

(* The arrival trace is part of the workload's definition, like a
   recorded datacenter trace: its seed is fixed and --seed seeds the
   hosts' simulation. Drawn from --seed, the trace alone moved a rep's
   wall time by +-10% and its peak memory by +-15% across seeds, more
   than any bound the benchmark could hold. *)
let cluster_trace_seed = 42L

let cluster_prepare ~seed size =
  let config = Config.with_seed Config.default seed in
  let trace =
    Spans.with_span ~layer:"cluster" "Vtrace.generate" (fun () ->
        Sim_cluster.Vtrace.generate ~max_vcpus:(Config.pcpus config)
          ~seed:cluster_trace_seed ~vms:(cluster_vms size)
          ~dist:Sim_cluster.Vtrace.Bimodal ~horizon_sec:(cluster_horizon size) ())
  in
  let t =
    Spans.with_span ~layer:"cluster" "Cluster.build" (fun () ->
        Sim_cluster.Cluster.build ~overcommit:2.0 ~rebalance:true config
          ~sched:Config.Asman ~policy:Sim_cluster.Placement.Lifetime_aware
          ~hosts:(cluster_hosts size) ~trace)
  in
  fun ~workers ->
    let r =
      Spans.with_span ~layer:"fabric" "Cluster.run" (fun () ->
          Sim_cluster.Cluster.run ~workers t ~horizon_sec:(cluster_horizon size))
    in
    let errors =
      Spans.with_span ~layer:"check" "Cluster.conservation_errors" (fun () ->
          Sim_cluster.Cluster.conservation_errors t)
    in
    let module C = Sim_cluster.Cluster in
    let f = float_of_int in
    let downtime_cycles =
      List.fold_left (fun acc v -> acc + v.C.v_downtime_cycles) 0 r.C.cr_vms
    in
    {
      digest = Printf.sprintf "%x/%d" r.C.cr_digest r.C.cr_events;
      failures = List.map (fun e -> "cluster-conservation: " ^ e) errors;
      events = r.C.cr_events;
      counters =
        [
          ("fabric.windows", f r.C.cr_windows);
          ("fabric.cross_posts", f r.C.cr_cross_posts);
          ("cluster.placements", f r.C.cr_placements);
          ("cluster.deferrals", f r.C.cr_deferrals);
          ("cluster.migrations", f r.C.cr_migrations);
          ("cluster.nacks", f r.C.cr_nacks);
          ("cluster.departures", f r.C.cr_departures);
          ("cluster.repredictions", f r.C.cr_repredictions);
          ( "cluster.downtime_ms",
            Sim_engine.Units.ms_of_cycles (Config.freq config) downtime_cycles );
          ("cluster.density_vms_per_host", r.C.cr_density);
          ("cluster.p99_stall_ms", r.C.cr_p99_stall_ms);
        ];
    }

(* ----- registry ----- *)

type t = {
  name : string;
  prepare :
    ?profile:Sim_obs.Prof.t -> seed:int64 -> size -> workers:int -> outcome;
      (* [profile] charges the runner's sections, where the workload's
         runs go through Runner *)
  shape : size -> string;  (* what one rep simulates *)
  golden : string;  (* digest at seed 42, full size *)
}

let all =
  [
    {
      name = "figs";
      prepare = figs_prepare;
      shape =
        (fun size ->
          Printf.sprintf "%d experiments at scale %g on 2x4 hosts"
            (List.length (figs_experiments size)) (figs_scale size));
      golden = "d0ca49e8abadafd6178fdfafc762d5c2";
    };
    {
      name = "decoupled";
      prepare = (fun ?profile:_ -> decoupled_prepare);
      shape =
        (fun size ->
          Printf.sprintf "20 VMs on an 8x16 host as 4 shards, %d rounds"
            (decoupled_rounds size));
      golden = "84c5ec80b9e21c9/4341531";
    };
    {
      name = "cluster";
      prepare = (fun ?profile:_ -> cluster_prepare);
      shape =
        (fun size ->
          Printf.sprintf "%d hosts of 2x4, %d VMs over %g s, trace seed %Ld"
            (cluster_hosts size) (cluster_vms size) (cluster_horizon size)
            cluster_trace_seed);
      golden = "72fb756437fa88ea/5291201";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
