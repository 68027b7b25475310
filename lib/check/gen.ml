open Asman
module Rng = Sim_engine.Rng

(* Every draw comes from one splitmix64 stream seeded by the case
   seed, so a case is reproducible from the seed alone and shrunk
   specs can be serialized without re-running the generator. *)

let weights = [| 128; 256; 512; 1024 |]

let nas_names = [| "BT"; "CG"; "EP"; "FT"; "MG"; "SP"; "LU" |]

(* Finite workloads: every thread's program terminates (restart =
   false throughout), so [Runner.run_rounds ~rounds:1] completes.
   Shared with test_properties, which needs termination. Covers
   locks (storm, random programs), barriers and semaphores. *)
let finite_workload rng : Scenario.workload_desc =
  match Rng.int rng 5 with
  | 0 ->
    Scenario.W_compute
      {
        threads = Rng.int_in rng ~lo:1 ~hi:4;
        chunks = Rng.int_in rng ~lo:2 ~hi:8;
        chunk_us = Rng.int_in rng ~lo:100 ~hi:2000;
      }
  | 1 ->
    Scenario.W_lock_storm
      {
        threads = Rng.int_in rng ~lo:2 ~hi:4;
        rounds = Rng.int_in rng ~lo:5 ~hi:40;
        cs_us = Rng.int_in rng ~lo:2 ~hi:30;
        think_us = Rng.int_in rng ~lo:5 ~hi:100;
      }
  | 2 ->
    Scenario.W_barrier
      {
        threads = Rng.int_in rng ~lo:2 ~hi:4;
        rounds = Rng.int_in rng ~lo:3 ~hi:20;
        compute_us = Rng.int_in rng ~lo:50 ~hi:1000;
        cv = float_of_int (Rng.int rng 40) /. 100.;
      }
  | 3 ->
    Scenario.W_ping_pong
      {
        rounds = Rng.int_in rng ~lo:5 ~hi:50;
        compute_us = Rng.int_in rng ~lo:10 ~hi:200;
      }
  | _ ->
    Scenario.W_random
      {
        threads = Rng.int_in rng ~lo:1 ~hi:4;
        ops = Rng.int_in rng ~lo:5 ~hi:60;
        nlocks = Rng.int_in rng ~lo:1 ~hi:4;
        prog_seed = Rng.int rng 1_000_000;
      }

(* Sustained workloads keep demand up through the whole window
   (restarting or long-running); used where the window must stay
   busy. *)
let sustained_workload rng : Scenario.workload_desc =
  match Rng.int rng 4 with
  | 0 -> Scenario.W_speccpu (if Rng.bool rng then "gcc" else "bzip2")
  | 1 -> Scenario.W_jbb { warehouses = Rng.int_in rng ~lo:2 ~hi:6 }
  | 2 -> Scenario.W_nas (Rng.pick rng nas_names)
  | _ ->
    Scenario.W_lock_storm
      {
        threads = Rng.int_in rng ~lo:2 ~hi:4;
        rounds = 100_000;
        cs_us = Rng.int_in rng ~lo:2 ~hi:30;
        think_us = Rng.int_in rng ~lo:5 ~hi:100;
      }

let any_workload rng =
  if Rng.bool rng then finite_workload rng else sustained_workload rng

let vm_name i = Printf.sprintf "vm%d" i

let base_spec rng =
  (* Mostly paper-testbed-sized hosts; one case in 16 is a big-host
     NUMA-ish box (64/128 PCPUs) so the big-topology paths stay
     fuzzed. *)
  let sockets, cores_per_socket =
    if Rng.int rng 16 = 0 then ((if Rng.bool rng then 4 else 8), 16)
    else
      ((if Rng.int rng 4 = 0 then 2 else 1), [| 2; 4; 4 |].(Rng.int rng 3))
  in
  {
    Spec.seed = Rng.next_int64 rng;
    sched = [| "credit"; "asman"; "asman"; "con"; "asman-oov" |].(Rng.int rng 5);
    scale = 0.05;
    work_conserving = Rng.int rng 4 <> 0;
    faults = "none";
    queue = (if Rng.bool rng then "wheel" else "heap");
    sim_jobs = 1;
    sockets;
    cores_per_socket;
    horizon_sec = 0.06 +. (0.02 *. float_of_int (Rng.int rng 8));
    check_fairness = false;
    accounting = "precise";
    check_entitlement = false;
    vms = [];
    cluster = None;
    provenance = None;
  }

(* The dedicated fairness shape: the only generated shape where
   Eq. (2) is an exact prediction — capped (non-work-conserving) mode
   so shares are enforced, every VM runs a restarting CPU-bound
   workload so demand never dips, distinct weights so a
   proportionality bug actually moves the measured rates, and no
   faults so nothing legitimately steals time. *)
let fairness_shape rng spec =
  let nvms = Rng.int_in rng ~lo:2 ~hi:3 in
  let ws = Array.copy weights in
  Rng.shuffle rng ws;
  let vms =
    List.init nvms (fun i ->
        {
          Spec.v_name = vm_name i;
          v_weight = ws.(i);
          v_vcpus = [| 2; 4 |].(Rng.int rng 2);
          (* pure compute only: jbb's think time makes demand
             unprovable, and the proportionality oracle is only sound
             when every VM provably wants the whole machine *)
          v_workload =
            Some (Scenario.W_speccpu (if Rng.bool rng then "gcc" else "bzip2"));
        })
  in
  {
    spec with
    (* always-coschedule trades fairness for gang alignment by
       design; proportionality is only a theorem for credit-family
       schedulers *)
    Spec.sched = (if Rng.bool rng then "credit" else "asman");
    work_conserving = false;
    faults = "none";
    check_fairness = true;
    horizon_sec = 0.3;
    vms;
  }

(* All-HIGH storm: every VM hammers locks, so under ASMan every VCRD
   goes and stays High — maximum gang-launch pressure. *)
let storm_shape rng spec =
  let nvms = Rng.int_in rng ~lo:2 ~hi:4 in
  let vms =
    List.init nvms (fun i ->
        {
          Spec.v_name = vm_name i;
          v_weight = Rng.pick rng weights;
          v_vcpus = Rng.int_in rng ~lo:2 ~hi:4;
          v_workload =
            Some
              (Scenario.W_lock_storm
                 {
                   threads = 4;
                   rounds = 100_000;
                   cs_us = Rng.int_in rng ~lo:5 ~hi:30;
                   think_us = Rng.int_in rng ~lo:5 ~hi:50;
                 });
        })
  in
  { spec with Spec.sched = "asman"; faults = "none"; vms }

(* The dedicated attack shape: the only generated shape where the
   entitlement oracle's attacker-vs-victim comparison is sound.
   Precise accounting (the defense under test: attacks must gain
   nothing), a small host so attacker and victims genuinely contend,
   attacker VMs running scheduler-attack guests, and victims running
   sustained CPU-bound work whose demand provably never dips. *)
let attack_shape rng spec =
  let attackers =
    if Rng.int rng 3 = 0 then
      [
        {
          Spec.v_name = "attacker-a";
          v_weight = 64;
          v_vcpus = 1;
          v_workload =
            Some (Scenario.W_attack_launder { threads = 1; phased = false });
        };
        {
          Spec.v_name = "attacker-b";
          v_weight = 64;
          v_vcpus = 1;
          v_workload =
            Some (Scenario.W_attack_launder { threads = 1; phased = true });
        };
      ]
    else
      [
        {
          Spec.v_name = "attacker";
          v_weight = 64;
          v_vcpus = 1;
          v_workload =
            Some
              (if Rng.bool rng then Scenario.W_attack_dodge { threads = 1 }
               else Scenario.W_attack_steal { threads = 1 });
        };
      ]
  in
  (* Saturation certificate: the attacker-vs-victim entitlement
     comparison is only sound when demand exceeds capacity — on an
     underloaded host a dodger's excess is legitimate work-conserving
     slack, not theft (victims still attain their full entitlement).
     Two victims sized to the host guarantee >= 2x oversubscription
     whatever the core count. *)
  let cores = if Rng.bool rng then 1 else 2 in
  let victims =
    List.init 2 (fun i ->
        {
          Spec.v_name = Printf.sprintf "victim%d" i;
          v_weight = 512;
          v_vcpus = cores;
          v_workload =
            Some (Scenario.W_speccpu (if Rng.bool rng then "gcc" else "bzip2"));
        })
  in
  {
    spec with
    (* credit-family only: entitlement is an Eq. (2) statement *)
    Spec.sched = (if Rng.bool rng then "credit" else "asman");
    sockets = 1;
    cores_per_socket = cores;
    faults = "none";
    accounting = "precise";
    check_entitlement = true;
    horizon_sec = 1.0;
    vms = attackers @ victims;
  }

(* The decoupled shape: a multi-socket host split into socket-aligned
   sub-hosts on the PDES fabric, judged by the worker-invariance
   oracle. Small shards (the fabric's window protocol, not host scale,
   is what's under test here), every VM loaded (idle VMs can't
   migrate), no faults (the decoupled engine excludes injection). *)
let decoupled_shape rng spec =
  let shards = if Rng.bool rng then 2 else 4 in
  let nvms = shards + Rng.int_in rng ~lo:1 ~hi:4 in
  let vms =
    List.init nvms (fun i ->
        {
          Spec.v_name = vm_name i;
          v_weight = Rng.pick rng weights;
          v_vcpus = [| 1; 2; 2; 4 |].(Rng.int rng 4);
          v_workload = Some (any_workload rng);
        })
  in
  {
    spec with
    Spec.sched = [| "credit"; "asman"; "con" |].(Rng.int rng 3);
    faults = "none";
    sim_jobs = shards;
    sockets = shards * (if Rng.bool rng then 1 else 2);
    cores_per_socket = [| 2; 4 |].(Rng.int rng 2);
    horizon_sec = 0.06 +. (0.02 *. float_of_int (Rng.int rng 4));
    vms;
  }

(* The cluster shape: a small simulated datacenter (the fabric's
   cross-host protocol and the placement bookkeeping, not host scale,
   are what's under test), judged by the cluster-conservation and
   placement-determinism oracles. Small hosts so arrivals actually
   contend for slots, every policy and lifetime distribution in
   rotation. *)
let cluster_shape rng spec =
  {
    spec with
    Spec.sched = [| "credit"; "asman"; "con" |].(Rng.int rng 3);
    faults = "none";
    sim_jobs = 1;
    sockets = 1;
    cores_per_socket = [| 2; 2; 4 |].(Rng.int rng 3);
    horizon_sec = 0.2 +. (0.1 *. float_of_int (Rng.int rng 3));
    vms = [];
    cluster =
      Some
        {
          Spec.cl_hosts = Rng.int_in rng ~lo:2 ~hi:4;
          cl_trace_seed = Rng.next_int64 rng;
          cl_policy = [| "first-fit"; "best-fit"; "lifetime" |].(Rng.int rng 3);
          cl_dist = [| "uniform"; "bimodal"; "heavy" |].(Rng.int rng 3);
          cl_vms = Rng.int_in rng ~lo:3 ~hi:8;
        };
  }

let fault_profiles =
  [| "chaos-mild"; "chaos-heavy"; "jitter"; "stall"; "hotplug";
     "ipi-loss-10"; "ipi-delay-20"; "vcrd-loss-20" |]

let chaos_shape rng spec =
  { spec with Spec.faults = Rng.pick rng fault_profiles }

let mixed_shape rng spec =
  let nvms = Rng.int_in rng ~lo:1 ~hi:4 in
  let vms =
    List.init nvms (fun i ->
        {
          Spec.v_name = vm_name i;
          v_weight = Rng.pick rng weights;
          v_vcpus = [| 1; 2; 2; 4 |].(Rng.int rng 4);
          v_workload =
            (* an occasional idle VM exercises the no-workload path *)
            (if Rng.int rng 10 = 0 then None else Some (any_workload rng));
        })
  in
  {
    spec with
    (* occasional sampled-accounting case: fuzzes the tick-debit paths
       for crashes and determinism (the entitlement oracle stays off —
       theft under sampled accounting is modeled behaviour) *)
    Spec.accounting = (if Rng.int rng 8 = 0 then "sampled" else "precise");
    vms;
  }

let spec case_seed =
  let rng = Rng.create case_seed in
  let base = base_spec rng in
  match Rng.int rng 11 with
  | 0 | 1 -> fairness_shape rng base
  | 2 -> storm_shape rng base
  | 3 | 4 -> chaos_shape rng (mixed_shape rng base)
  | 5 -> attack_shape rng base
  | 6 -> decoupled_shape rng base
  | 7 -> cluster_shape rng base
  | _ -> mixed_shape rng base

(* Case seeds for a run: decorrelate neighbouring indices so
   [--seed 1] and [--seed 2] share no cases. *)
let case_seed ~seed ~index =
  let r = Rng.create seed in
  let salt = Rng.next_int64 r in
  Int64.add salt (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1)))
