(* The cluster layer's directed tests: trace generation (determinism
   and the per-entry-stream prefix property), placement policy
   decisions on hand-built host views, a full datacenter run with
   pressure migrations landing among live arrivals (conservation,
   reservation honoring, stop-and-copy cost accounting), and fabric
   worker-count invariance of the placement log and digest. *)

open Asman
module Cluster = Sim_cluster.Cluster
module Placement = Sim_cluster.Placement
module Vtrace = Sim_cluster.Vtrace

let config seed =
  {
    Config.default with
    Config.seed;
    topology = Sim_hw.Topology.make ~sockets:2 ~cores_per_socket:2;
  }

(* ----- trace generation ----- *)

let test_trace_deterministic () =
  let gen vms =
    Vtrace.generate ~max_vcpus:4 ~seed:42L ~vms ~dist:Vtrace.Bimodal
      ~horizon_sec:1.0 ()
  in
  Alcotest.(check bool) "same seed, same trace" true (gen 8 = gen 8);
  (* per-entry streams: the 7-VM trace is exactly the 8-VM trace minus
     vm7 — dropping a trace entry never perturbs the survivors *)
  let eight = gen 8 and seven = gen 7 in
  Alcotest.(check bool)
    "shorter trace is a prefix (modulo the arrival sort)" true
    (List.filter (fun (e : Vtrace.entry) -> e.Vtrace.e_name <> "vm7") eight
    = seven);
  List.iter
    (fun (e : Vtrace.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s arrives inside the horizon" e.Vtrace.e_name)
        true
        (e.Vtrace.e_arrive_sec >= 0.0 && e.Vtrace.e_arrive_sec < 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s has sane vcpus" e.Vtrace.e_name)
        true
        (e.Vtrace.e_vcpus >= 1 && e.Vtrace.e_vcpus <= 4))
    eight

let test_dist_names_roundtrip () =
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Vtrace.dist_name d ^ " round-trips")
        true
        (Vtrace.dist_of_name (Vtrace.dist_name d) = Some d))
    [ Vtrace.Uniform; Vtrace.Bimodal; Vtrace.Heavy ]

(* ----- placement decisions on hand-built views ----- *)

(* Three hosts of 8 slots. Host 0 holds a short-lived resident (drains
   at t=1), host 1 a long-lived one (drains at t=9), host 2 is empty.
   The arriving VM predicts a long life (ends t=9.5). *)
let hand_views () =
  let views =
    Array.init 3 (fun id -> Placement.make_view ~id ~capacity:8)
  in
  Placement.admit views.(0)
    { Placement.r_name = "short"; r_vcpus = 2; r_predicted_end_sec = 1.0 };
  Placement.admit views.(1)
    { Placement.r_name = "long"; r_vcpus = 4; r_predicted_end_sec = 9.0 };
  views

let choose policy views =
  Placement.choose policy views ~vcpus:2 ~now_sec:0.0 ~predicted_end_sec:9.5
    ~penalty_sec:0.75

let test_policies_diverge () =
  let views = hand_views () in
  (* first-fit: lowest feasible id, blind to lifetimes *)
  Alcotest.(check (option int)) "first-fit stacks on host 0" (Some 0)
    (choose Placement.First_fit views);
  (* best-fit: tightest remaining capacity *)
  Alcotest.(check (option int)) "best-fit packs the fullest host" (Some 1)
    (choose Placement.Best_fit views);
  (* lifetime-aware: placing next to the long-lived resident extends
     host 1's drain window by only 0.5s (vs 8.5s on host 0 and 9.5s on
     host 2), and the utilization penalty cannot make up the gap *)
  Alcotest.(check (option int)) "lifetime-aware aligns exits on host 1"
    (Some 1)
    (choose Placement.Lifetime_aware views);
  (* a full host is skipped by every policy *)
  views.(0).Placement.h_used <- 8;
  views.(1).Placement.h_used <- 8;
  views.(2).Placement.h_used <- 8;
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Placement.policy_name p ^ " rejects a full cluster")
        None (choose p views))
    [ Placement.First_fit; Placement.Best_fit; Placement.Lifetime_aware ]

(* ----- full datacenter runs ----- *)

(* Seed 5 on this shape is a pinned scenario with several pressure
   migrations completing while later trace VMs are still arriving —
   the mid-migration window the reservation bookkeeping must survive. *)
let mig_seed = 5L
let mig_hosts = 3
let mig_vms = 12
let mig_horizon = 0.6

let run_mig ?(policy = Placement.First_fit) ~workers () =
  let c = config mig_seed in
  let trace =
    Vtrace.generate ~max_vcpus:(Config.pcpus c) ~seed:mig_seed ~vms:mig_vms
      ~dist:Vtrace.Bimodal ~horizon_sec:mig_horizon ()
  in
  let t =
    Cluster.build c ~sched:Config.Asman ~policy ~hosts:mig_hosts ~trace
  in
  let r = Cluster.run ~workers t ~horizon_sec:mig_horizon in
  (t, r, trace)

let test_migration_under_pressure () =
  let t, r, _ = run_mig ~workers:1 () in
  Alcotest.(check bool)
    (Printf.sprintf "pressure migrations completed (got %d)"
       r.Cluster.cr_migrations)
    true
    (r.Cluster.cr_migrations >= 1);
  (* at least one arrival was admitted or deferred while a
     stop-and-copy was in flight: the log shows a place/defer entry
     strictly inside an [evict X .. migrated X] window *)
  let log = Cluster.placement_log t in
  let mid_migration_arrivals =
    List.fold_left
      (fun acc (te, e) ->
        if String.starts_with ~prefix:"evict " e then
          let name = List.nth (String.split_on_char ' ' e) 1 in
          match
            List.find_opt
              (fun (_, m) ->
                String.starts_with ~prefix:("migrated " ^ name ^ " ") m)
              log
          with
          | Some (tm, _) ->
            acc
            + List.length
                (List.filter
                   (fun (tp, p) ->
                     tp > te && tp < tm
                     && (String.starts_with ~prefix:"place " p
                        || String.starts_with ~prefix:"defer " p))
                   log)
          | None -> acc
        else acc)
      0 log
  in
  Alcotest.(check bool)
    (Printf.sprintf "arrivals landed mid-migration (got %d)"
       mid_migration_arrivals)
    true
    (mid_migration_arrivals >= 1);
  (* ...and the reservation bookkeeping survived them: no double
     residency, no oversubscribed host, departures on time *)
  Alcotest.(check (list string)) "cluster conserved" []
    (Cluster.conservation_errors t)

let test_migration_cost_accounting () =
  let _, r, trace = run_mig ~workers:1 () in
  let c = config mig_seed in
  let lookahead = Sim_hw.Cpu_model.slot_cycles c.Config.cpu in
  let copy_per_mb = Sim_engine.Units.cycles_of_us (Config.freq c) 100 in
  let migrated =
    List.filter (fun v -> v.Cluster.v_migrations > 0) r.Cluster.cr_vms
  in
  Alcotest.(check bool) "some VM migrated" true (migrated <> []);
  List.iter
    (fun (v : Cluster.vm_report) ->
      let entry =
        List.find
          (fun (e : Vtrace.entry) -> e.Vtrace.e_name = v.Cluster.v_name)
          trace
      in
      (* every completed migration froze the guest for at least the
         transit hop plus the footprint-proportional stop-and-copy *)
      let floor =
        v.Cluster.v_migrations
        * (lookahead + (entry.Vtrace.e_footprint_mb * copy_per_mb))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s downtime %d >= %d (%d migration(s), %d MB)"
           v.Cluster.v_name v.Cluster.v_downtime_cycles floor
           v.Cluster.v_migrations entry.Vtrace.e_footprint_mb)
        true
        (v.Cluster.v_downtime_cycles >= floor))
    migrated;
  List.iter
    (fun (v : Cluster.vm_report) ->
      if v.Cluster.v_migrations = 0 then
        Alcotest.(check int)
          (v.Cluster.v_name ^ " never froze")
          0 v.Cluster.v_downtime_cycles)
    r.Cluster.cr_vms

let test_policies_diverge_full_run () =
  let _, ff, _ = run_mig ~policy:Placement.First_fit ~workers:1 () in
  let _, la, _ = run_mig ~policy:Placement.Lifetime_aware ~workers:1 () in
  Alcotest.(check bool)
    "first-fit and lifetime-aware pick different placements" true
    (ff.Cluster.cr_log <> la.Cluster.cr_log);
  Alcotest.(check string) "reports carry their policy" "first-fit"
    ff.Cluster.cr_policy;
  Alcotest.(check string) "reports carry their policy" "lifetime"
    la.Cluster.cr_policy

(* ----- fabric worker-count invariance ----- *)

let test_workers_invariant () =
  let c = config 9L in
  let trace =
    Vtrace.generate ~max_vcpus:(Config.pcpus c) ~seed:9L ~vms:14
      ~dist:Vtrace.Heavy ~horizon_sec:0.5 ()
  in
  let run workers =
    let t =
      Cluster.build c ~sched:Config.Credit ~policy:Placement.Lifetime_aware
        ~hosts:4 ~trace
    in
    Cluster.run ~workers t ~horizon_sec:0.5
  in
  let r1 = run 1 and r2 = run 2 in
  Alcotest.(check int) "digests agree across worker counts"
    r1.Cluster.cr_digest r2.Cluster.cr_digest;
  Alcotest.(check bool) "placement logs agree across worker counts" true
    (r1.Cluster.cr_log = r2.Cluster.cr_log);
  Alcotest.(check int) "departures agree" r1.Cluster.cr_departures
    r2.Cluster.cr_departures;
  Alcotest.(check int) "migrations agree" r1.Cluster.cr_migrations
    r2.Cluster.cr_migrations

(* ----- set-up cost ----- *)

(* Building 64 default (2x4) hosts for a 200-VM trace allocates 0.61M
   minor words: each host's VMM registers its instruments into a keyed
   table. A registry that copies itself on every registration made
   this 4.62M, quadratic in the instruments per member (the incubator
   member registers every trace VM's). *)
let test_build_alloc () =
  let c = Config.with_seed Config.default 42L in
  let trace =
    Vtrace.generate ~max_vcpus:(Config.pcpus c) ~seed:42L ~vms:200
      ~dist:Vtrace.Bimodal ~horizon_sec:1.0 ()
  in
  let before = Gc.minor_words () in
  let (_ : Cluster.t) =
    Cluster.build c ~sched:Config.Asman ~policy:Placement.Lifetime_aware
      ~hosts:64 ~trace
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Cluster.build 64 hosts / 200 VMs: %.2fM minor words \
                     (bound 1.5M)" (words /. 1e6))
    true (words < 1.5e6)

let suite =
  [
    Alcotest.test_case "trace generation is deterministic with the prefix \
                        property" `Quick test_trace_deterministic;
    Alcotest.test_case "lifetime distribution names round-trip" `Quick
      test_dist_names_roundtrip;
    Alcotest.test_case "policies diverge on a hand-built 3-host view" `Quick
      test_policies_diverge;
    Alcotest.test_case "migrations complete under live arrival pressure"
      `Slow test_migration_under_pressure;
    Alcotest.test_case "stop-and-copy downtime accounts transit plus \
                        footprint" `Slow test_migration_cost_accounting;
    Alcotest.test_case "first-fit and lifetime-aware place differently"
      `Slow test_policies_diverge_full_run;
    Alcotest.test_case "placement log and digest are worker-count invariant"
      `Slow test_workers_invariant;
    Alcotest.test_case "building 64 hosts allocates linearly" `Quick
      test_build_alloc;
  ]
