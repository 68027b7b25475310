open Asman
module Trace = Sim_obs.Trace
module Engine = Sim_engine.Engine

(* The trace categories the oracles read. Spin/Ipi/Fault are excluded
   to bound ring volume on contention-heavy cases (oracles needing a
   complete record skip themselves when the ring overflowed). *)
let trace_mask =
  List.fold_left
    (fun m c -> m lor Trace.cat_bit c)
    0
    [ Trace.Sched; Trace.Credit; Trace.Vcrd; Trace.Gang; Trace.Invariant ]

let trace_cap = 1 lsl 17

let probe_every_sec = 0.005
let max_probe_errors = 5

let config_of_spec ?queue (spec : Spec.t) =
  let queue = Option.value queue ~default:(Spec.queue_kind spec) in
  {
    Config.default with
    Config.seed = spec.Spec.seed;
    topology =
      Sim_hw.Topology.make ~sockets:spec.Spec.sockets
        ~cores_per_socket:spec.Spec.cores_per_socket;
    scale = spec.Spec.scale;
    work_conserving = spec.Spec.work_conserving;
    faults = Spec.fault_profile spec;
    accounting = Spec.accounting_mode spec;
    invariants = Sim_vmm.Vmm.Record;
    engine_queue = Some queue;
    sim_jobs = spec.Spec.sim_jobs;
    obs =
      {
        Config.trace_mask;
        trace_cap;
        metrics = false;
        profile = None;
        (* thousands of scenarios per fuzz run: stay out of the
           global export hub *)
        hub = false;
      };
  }

type fingerprint = {
  fp_now : int;
  fp_events : int;
  fp_ctx_switches : int;
  fp_ipis : int;
  fp_vms : (string * int * int * int) list;
      (** (name, marks, rounds, vcrd transitions) in VM order *)
}

let fingerprint_to_string fp =
  Printf.sprintf "now=%d events=%d ctx=%d ipis=%d vms=[%s]" fp.fp_now
    fp.fp_events fp.fp_ctx_switches fp.fp_ipis
    (String.concat "; "
       (List.map
          (fun (n, m, r, v) -> Printf.sprintf "%s:%d/%d/%d" n m r v)
          fp.fp_vms))

let run_once ?queue (spec : Spec.t) =
  let config = config_of_spec ?queue spec in
  let s =
    Scenario.of_descs config ~sched:(Spec.sched_kind spec) (Spec.vm_descs spec)
  in
  let probe_errors = ref [] in
  let probe =
    ( probe_every_sec,
      fun (sc : Scenario.t) ->
        if List.length !probe_errors < max_probe_errors then
          match Sim_vmm.Vmm.check_invariants sc.Scenario.vmm with
          | Ok () -> ()
          | Error e -> probe_errors := e :: !probe_errors )
  in
  let started = Engine.now s.Scenario.engine in
  let m = Runner.run_window ~probe s ~sec:spec.Spec.horizon_sec in
  let finished = Engine.now s.Scenario.engine in
  let tr = Engine.trace s.Scenario.engine in
  let vmm = s.Scenario.vmm in
  let vms =
    List.map
      (fun (inst : Scenario.vm_instance) ->
        let dom = inst.Scenario.domain in
        let name = inst.Scenario.spec.Scenario.vm_name in
        let vm = Runner.vm_metrics m ~vm:name in
        {
          Oracle.o_name = name;
          o_domain = dom.Sim_vmm.Domain.id;
          o_vcpus =
            Array.map
              (fun (v : Sim_vmm.Vcpu.t) -> v.Sim_vmm.Vcpu.id)
              dom.Sim_vmm.Domain.vcpus;
          o_weight = dom.Sim_vmm.Domain.weight;
          o_concurrent = dom.Sim_vmm.Domain.concurrent_type;
          o_final_credits =
            Array.map
              (fun (v : Sim_vmm.Vcpu.t) -> v.Sim_vmm.Vcpu.credit)
              dom.Sim_vmm.Domain.vcpus;
          o_online_rate = vm.Runner.online_rate;
          o_expected_online = vm.Runner.expected_online;
          o_attacker =
            (match inst.Scenario.spec.Scenario.workload with
            | Some w -> Sim_workloads.Attack.is_attack w
            | None -> false);
        })
      s.Scenario.vms
  in
  let input =
    {
      Oracle.pcpus = Config.pcpus config;
      slot_cycles = Sim_hw.Cpu_model.slot_cycles config.Config.cpu;
      slots_per_period = config.Config.cpu.Sim_hw.Cpu_model.slots_per_period;
      credit_unit = config.Config.credit_unit;
      work_conserving = spec.Spec.work_conserving;
      clean = Sim_faults.Fault.is_none config.Config.faults;
      sched = spec.Spec.sched;
      check_fairness = spec.Spec.check_fairness;
      accounting = spec.Spec.accounting;
      check_entitlement = spec.Spec.check_entitlement;
      started;
      finished;
      entries = Trace.entries tr;
      trace_dropped = Trace.dropped tr;
      dom0 = s.Scenario.dom0.Sim_vmm.Domain.id;
      dom0_vcpus =
        Array.map
          (fun (v : Sim_vmm.Vcpu.t) -> v.Sim_vmm.Vcpu.id)
          s.Scenario.dom0.Sim_vmm.Domain.vcpus;
      vms;
      runtime_violations = Sim_vmm.Vmm.invariant_violation_count vmm;
      runtime_messages = Sim_vmm.Vmm.invariant_violations vmm;
      structural = Sim_vmm.Vmm.check_invariants vmm;
      probe_errors = List.rev !probe_errors;
    }
  in
  let fp =
    {
      fp_now = finished;
      fp_events = Engine.events_fired s.Scenario.engine;
      fp_ctx_switches = Sim_vmm.Vmm.ctx_switches vmm;
      fp_ipis = Sim_hw.Machine.ipis_sent s.Scenario.machine;
      fp_vms =
        List.map
          (fun (inst : Scenario.vm_instance) ->
            let name = inst.Scenario.spec.Scenario.vm_name in
            let vm = Runner.vm_metrics m ~vm:name in
            (name, vm.Runner.marks, vm.Runner.rounds, vm.Runner.vcrd_transitions))
          s.Scenario.vms;
    }
  in
  (fp, Oracle.run_all input)

let flip = function
  | Sim_engine.Engine.Wheel_queue -> Sim_engine.Engine.Heap_queue
  | Sim_engine.Engine.Heap_queue -> Sim_engine.Engine.Wheel_queue

(* ----- decoupled cases ----- *)

(* A modest round target: enough simulated work for cross-shard
   steals to happen, bounded by the spec's horizon either way. *)
let decouple_rounds = 2

let run_decoupled_once ~workers (spec : Spec.t) =
  let config = config_of_spec spec in
  let vms =
    List.map
      (fun (d : Scenario.vm_desc) ->
        {
          Scenario.vm_name = d.Scenario.vd_name;
          weight = d.Scenario.vd_weight;
          vcpus = d.Scenario.vd_vcpus;
          workload =
            Option.map (Scenario.workload_of_desc config) d.Scenario.vd_workload;
        })
      (Spec.vm_descs spec)
  in
  let d = Decouple.build config ~sched:(Spec.sched_kind spec) ~vms in
  let r =
    Decouple.run ~workers d ~rounds:decouple_rounds
      ~max_sec:spec.Spec.horizon_sec
  in
  (r.Decouple.rp_digest, r.Decouple.rp_events, r.Decouple.rp_fingerprint)

(* A decoupled case's contract is worker-count invariance: the same
   scenario run on one worker and on two must produce byte-identical
   fabric digests. The coupled trace oracles don't apply — each
   sub-host runs dark (no trace), and the interesting state (steals,
   relocations) lives in the fabric, which the digest covers. *)
let run_decoupled (spec : Spec.t) : Oracle.failure list =
  match run_decoupled_once ~workers:1 spec with
  | exception e ->
    [ { Oracle.oracle = "no-crash"; message = Printexc.to_string e } ]
  | d1, ev1, fp1 -> (
    match run_decoupled_once ~workers:2 spec with
    | exception e ->
      [
        {
          Oracle.oracle = "decouple-workers";
          message =
            Printf.sprintf "rerun with 2 workers crashed: %s"
              (Printexc.to_string e);
        };
      ]
    | d2, ev2, fp2 ->
      if d1 = d2 && ev1 = ev2 then []
      else
        [
          {
            Oracle.oracle = "decouple-workers";
            message =
              Printf.sprintf
                "1-vs-2 worker divergence: digest %x/%x events %d/%d\n\
                 w1: %s\nw2: %s" d1 d2 ev1 ev2 fp1 fp2;
          };
        ])

(* ----- cluster cases ----- *)

let run_cluster_once ~workers (spec : Spec.t) =
  let config = config_of_spec spec in
  let c = Option.get spec.Spec.cluster in
  let trace =
    Sim_cluster.Vtrace.generate
      ~max_vcpus:(Config.pcpus config)
      ~seed:c.Spec.cl_trace_seed ~vms:c.Spec.cl_vms
      ~dist:(Spec.cluster_dist spec) ~horizon_sec:spec.Spec.horizon_sec ()
  in
  let t =
    Sim_cluster.Cluster.build config ~sched:(Spec.sched_kind spec)
      ~policy:(Spec.cluster_policy spec) ~hosts:c.Spec.cl_hosts ~trace
  in
  let r = Sim_cluster.Cluster.run ~workers t ~horizon_sec:spec.Spec.horizon_sec in
  (r, Sim_cluster.Cluster.conservation_errors t)

(* A cluster case's contract is twofold: the conservation oracle (no
   VM lost, duplicated or double-booked; capacity and departures
   consistent) on the single-worker run, then placement determinism —
   the same datacenter on two fabric workers must produce the
   identical placement log and digest. *)
let run_cluster (spec : Spec.t) : Oracle.failure list =
  match run_cluster_once ~workers:1 spec with
  | exception e ->
    [ { Oracle.oracle = "no-crash"; message = Printexc.to_string e } ]
  | r1, errs1 -> (
    if errs1 <> [] then
      [
        {
          Oracle.oracle = "cluster-conservation";
          message = String.concat "; " errs1;
        };
      ]
    else
      match run_cluster_once ~workers:2 spec with
      | exception e ->
        [
          {
            Oracle.oracle = "placement-determinism";
            message =
              Printf.sprintf "rerun with 2 workers crashed: %s"
                (Printexc.to_string e);
          };
        ]
      | r2, _ ->
        if
          r1.Sim_cluster.Cluster.cr_digest = r2.Sim_cluster.Cluster.cr_digest
          && r1.Sim_cluster.Cluster.cr_log = r2.Sim_cluster.Cluster.cr_log
        then []
        else
          [
            {
              Oracle.oracle = "placement-determinism";
              message =
                Printf.sprintf
                  "1-vs-2 worker divergence: digest %x/%x log %d/%d entries\n\
                   w1: %s\nw2: %s"
                  r1.Sim_cluster.Cluster.cr_digest
                  r2.Sim_cluster.Cluster.cr_digest
                  (List.length r1.Sim_cluster.Cluster.cr_log)
                  (List.length r2.Sim_cluster.Cluster.cr_log)
                  r1.Sim_cluster.Cluster.cr_fingerprint
                  r2.Sim_cluster.Cluster.cr_fingerprint;
            };
          ])

let run (spec : Spec.t) : Oracle.failure list =
  match Spec.validate spec with
  | Error e -> [ { Oracle.oracle = "spec"; message = e } ]
  | Ok () when spec.Spec.cluster <> None -> run_cluster spec
  | Ok () when spec.Spec.sim_jobs >= 2 -> run_decoupled spec
  | Ok () -> (
    match run_once spec with
    | exception e ->
      [ { Oracle.oracle = "no-crash"; message = Printexc.to_string e } ]
    | _, (_ :: _ as failures) -> failures
    | fp, [] -> (
      (* Primary run clean: the determinism oracle reruns the exact
         case on the other queue backend and diffs observable
         outcomes. (Per-case isolation — own engine, own registry —
         is what makes [-j 1] vs [-j 4] equality hold by
         construction; the backend flip is the part that needs an
         actual rerun.) *)
      match run_once ~queue:(flip (Spec.queue_kind spec)) spec with
      | exception e ->
        [
          {
            Oracle.oracle = "determinism";
            message =
              Printf.sprintf "rerun on flipped queue backend crashed: %s"
                (Printexc.to_string e);
          };
        ]
      | fp', _ when fp <> fp' ->
        [
          {
            Oracle.oracle = "determinism";
            message =
              Printf.sprintf "wheel/heap divergence: %s vs %s"
                (fingerprint_to_string fp)
                (fingerprint_to_string fp');
          };
        ]
      | _ -> []))
