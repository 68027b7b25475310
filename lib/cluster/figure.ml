(* The consolidation-density figure: VMs-per-host vs worst-trace p99
   LHP stall, ASMan vs Credit vs static gang, first-fit vs
   lifetime-aware placement. Not a figure of the paper itself — it
   extends the single-host evaluation to fleet scale the way LAVA
   frames lifetime-aware consolidation — so [expected] stays empty
   and the notes carry the shape checks.

   Regime: many small (2x2) hosts at 3x slot overcommit with the
   rebalancer off, so placement is destiny. First-fit stacks arrivals
   on the lowest-id host with room; when a hot-lock guest lands on a
   stacked host, lock-holder preemption stretches its spin waits to
   tens of milliseconds. The lifetime-aware scorer's utilization
   penalty spreads that risk, so its worst-trace p99 stays flat while
   density grows. Each point pools [replicas] independent arrival
   traces and reports the worst per-trace p99 — the tenant-SLO view
   of a placement policy's risk. *)

let hosts = 8
let horizon_sec = 1.0
let overcommit = 3.0
let replicas = 5
let loads = [ 16; 28; 40 ]

(* Worst-trace p99 above this is a busted stall budget: an LHP storm
   (holder descheduled for whole timeslices), not lock queueing. *)
let stall_budget_ms = 1.0

let scheds =
  [
    ("credit", Asman.Config.Credit);
    ("asman", Asman.Config.Asman);
    ("con", Asman.Config.Cosched_static);
  ]

let policies =
  [ ("first-fit", Placement.First_fit); ("lifetime", Placement.Lifetime_aware) ]

let series_label sched_name policy_name =
  Printf.sprintf "%s/%s" sched_name policy_name

let replica_seed base r = Int64.add (Int64.mul base 1_000_003L) (Int64.of_int r)

let run_point config ~sched ~policy ~vms ~replica =
  let seed = replica_seed config.Asman.Config.seed replica in
  let config = { config with Asman.Config.seed } in
  let trace =
    Vtrace.generate
      ~max_vcpus:(Asman.Config.pcpus config)
      ~seed ~vms ~dist:Vtrace.Bimodal ~horizon_sec ()
  in
  let t =
    Cluster.build ~overcommit ~rebalance:false config ~sched ~policy ~hosts
      ~trace
  in
  (* workers:1 — the experiment harness already parallelizes across
     points, and the report is worker-count-invariant anyway *)
  Cluster.run ~workers:1 t ~horizon_sec

type point_summary = {
  ps_density : float;  (** mean over replicas *)
  ps_p99_ms : float;  (** worst replica's p99 *)
}

let summarize reports =
  let n = float_of_int (List.length reports) in
  {
    ps_density =
      List.fold_left (fun a (r : Cluster.report) -> a +. r.Cluster.cr_density)
        0.0 reports
      /. n;
    ps_p99_ms =
      List.fold_left
        (fun a (r : Cluster.report) -> Float.max a r.Cluster.cr_p99_stall_ms)
        0.0 reports;
  }

let run config =
  let config =
    {
      config with
      Asman.Config.topology = Sim_hw.Topology.make ~sockets:2 ~cores_per_socket:2;
    }
  in
  let report =
    Asman.Experiments.sweep
      (fun (sname, pname, vms, replica) ->
        run_point config ~sched:(List.assoc sname scheds)
          ~policy:(List.assoc pname policies) ~vms ~replica)
      (List.concat_map
         (fun (sname, _) ->
           List.concat_map
             (fun (pname, _) ->
               List.concat_map
                 (fun vms ->
                   List.init replicas (fun r -> (sname, pname, vms, r)))
                 loads)
             policies)
         scheds)
  in
  let summary_of sname pname vms =
    summarize (List.init replicas (fun r -> report (sname, pname, vms, r)))
  in
  let series =
    List.map
      (fun (sname, _) ->
        List.map
          (fun (pname, _) ->
            let pts =
              List.map
                (fun vms ->
                  let s = summary_of sname pname vms in
                  (s.ps_density, s.ps_p99_ms))
                loads
            in
            Sim_stats.Series.make
              ~label:(series_label sname pname)
              ~x_name:"density (VMs per host)"
              ~y_name:"p99 stall, worst trace (ms)" pts)
          policies)
      scheds
    |> List.concat
  in
  (* The consolidation frontier: the densest operating point a policy
     sustains without busting the stall budget on any trace. *)
  let sustained sname pname =
    List.fold_left
      (fun acc vms ->
        let s = summary_of sname pname vms in
        if s.ps_p99_ms <= stall_budget_ms then Float.max acc s.ps_density
        else acc)
      0.0 loads
  in
  let notes =
    List.map
      (fun (sname, _) ->
        let la = sustained sname "lifetime" in
        let ff = sustained sname "first-fit" in
        Printf.sprintf
          "%s: at a %.1f ms worst-trace p99 stall budget, lifetime-aware \
           sustains %.2f VMs/host vs first-fit %.2f -> %s"
          sname stall_budget_ms la ff
          (if la > ff +. 0.01 then "lifetime-aware consolidates denser"
           else if ff > la +. 0.01 then "first-fit consolidates denser"
           else "parity"))
      scheds
    @ List.concat_map
        (fun (sname, _) ->
          List.map
            (fun vms ->
              let la = summary_of sname "lifetime" vms in
              let ff = summary_of sname "first-fit" vms in
              Printf.sprintf
                "%s load %d: lifetime %.2f VMs/host worst p99 %.2f ms | \
                 first-fit %.2f VMs/host worst p99 %.2f ms"
                sname vms la.ps_density la.ps_p99_ms ff.ps_density
                ff.ps_p99_ms)
            loads)
        scheds
  in
  { Asman.Experiments.series; expected = []; notes }

let experiment =
  {
    Asman.Experiments.id = "cluster";
    title =
      "Consolidation density: VMs per host vs worst-trace p99 LHP stall \
       across placement policies";
    description =
      "Simulated 8-host datacenter of small (2x2) hosts at 3x slot \
       overcommit, driven by seeded bimodal-lifetime arrival traces (5 \
       replicas per point, rebalancer off so placement is destiny); \
       first-fit bin-packing vs the LAVA-style lifetime-aware scorer under \
       Credit, ASMan and static gang scheduling. x is time-averaged \
       admitted VMs per host, y is the worst replica's p99 guest spin-wait \
       stall: first-fit's stacking turns lock-holder preemption into \
       tens-of-ms storms that the lifetime-aware spread avoids, and the \
       ASMan scheduler mitigates even under stacking.";
    run;
  }

(* Flatten an outcome of the cluster experiment into registry metric
   cells, mirroring [Experiments.fairness_entries] for theft: one
   density and one p99 entry per (sched, policy, load) point. *)
let registry_entries (outcome : Asman.Experiments.outcome) =
  List.concat_map
    (fun (s : Sim_stats.Series.t) ->
      List.concat
        (List.mapi
           (fun i (pt : Sim_stats.Series.point) ->
             let load =
               match List.nth_opt loads i with
               | Some l -> string_of_int l
               | None -> Printf.sprintf "p%d" i
             in
             [
               (Printf.sprintf "density %s L%s" s.Sim_stats.Series.label load,
                pt.Sim_stats.Series.x);
               (Printf.sprintf "p99 %s L%s" s.Sim_stats.Series.label load,
                pt.Sim_stats.Series.y);
             ])
           s.Sim_stats.Series.points))
    outcome.Asman.Experiments.series
