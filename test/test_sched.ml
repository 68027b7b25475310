(* Scheduler-level tests: work stealing, coscheduling mechanics,
   relocation (Algorithm 3), the cap and the gang behaviours. *)

open Asman

let config = Config.with_scale (Config.with_seed Config.default 21L) 0.05

let freq = Config.freq config

let ms n = Sim_engine.Units.cycles_of_ms freq n

let nas b =
  Sim_workloads.Nas.workload (Sim_workloads.Nas.params b ~freq ~scale:0.05)

(* ----- load balancing ----- *)

let test_work_stealing_spreads_load () =
  (* 4 compute threads on a VM whose VCPUs start on neighbouring
     PCPUs: stealing must keep all four online essentially always. *)
  let workload =
    Sim_workloads.Synthetic.compute_only ~threads:4 ~chunks:200
      ~chunk_cycles:(ms 5) ()
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 4; workload = Some workload } ]
  in
  let m = Runner.run_window s ~sec:0.5 in
  let vm = Runner.vm_metrics m ~vm:"V" in
  Alcotest.(check bool)
    (Printf.sprintf "all online (%.3f)" vm.Runner.online_rate)
    true (vm.Runner.online_rate > 0.95)

let test_more_vcpus_than_pcpus () =
  (* A 16-VCPU VM on 8 PCPUs: online rate ~0.5, no crashes. *)
  let workload =
    Sim_workloads.Synthetic.compute_only ~threads:16 ~chunks:100
      ~chunk_cycles:(ms 5) ()
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 16; workload = Some workload } ]
  in
  let m = Runner.run_window s ~sec:0.5 in
  let vm = Runner.vm_metrics m ~vm:"V" in
  Alcotest.(check bool)
    (Printf.sprintf "half online (%.3f)" vm.Runner.online_rate)
    true
    (vm.Runner.online_rate > 0.4 && vm.Runner.online_rate < 0.6);
  Alcotest.(check bool) "invariants" true
    (Sim_vmm.Vmm.check_invariants s.Scenario.vmm = Ok ())

(* ----- the cap (non-work-conserving) ----- *)

let test_cap_is_enforced_per_scheduler () =
  List.iter
    (fun sched ->
      let s =
        Scenario.build
          (Config.with_work_conserving config false)
          ~sched
          ~vms:
            [ { Scenario.vm_name = "V"; weight = 32; vcpus = 4;
                workload = Some (nas Sim_workloads.Nas.LU) } ]
      in
      let m = Runner.run_window s ~sec:2. in
      let vm = Runner.vm_metrics m ~vm:"V" in
      Alcotest.(check bool)
        (Printf.sprintf "%s capped near 0.222 (%.3f)" (Config.sched_name sched)
           vm.Runner.online_rate)
        true
        (vm.Runner.online_rate < 0.30))
    [ Config.Credit; Config.Asman; Config.Cosched_static ]

(* ----- coscheduling mechanics ----- *)

let high_scenario sched =
  (* An LU VM at a low online rate: VCRD goes HIGH early and often. *)
  Scenario.build
    (Config.with_work_conserving config false)
    ~sched
    ~vms:
      [ { Scenario.vm_name = "V"; weight = 64; vcpus = 4;
          workload = Some (nas Sim_workloads.Nas.LU) } ]

let test_asman_sends_ipis_credit_does_not () =
  let count sched =
    let s = high_scenario sched in
    let m = Runner.run_window s ~sec:1.5 in
    m.Runner.ipis
  in
  Alcotest.(check int) "credit sends none" 0 (count Config.Credit);
  Alcotest.(check bool) "asman sends some" true (count Config.Asman > 0)

let test_relocation_distinct_pcpus () =
  (* While VCRD is HIGH, the domain's Ready VCPUs must sit in distinct
     run queues (Algorithm 3, lines 8-15). Sample during a run. *)
  let s = high_scenario Config.Asman in
  let inst = Scenario.find_vm s "V" in
  let dom = inst.Scenario.domain in
  let violations = ref 0 and samples = ref 0 in
  let rec check () =
    (if dom.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High then begin
       incr samples;
       let homes =
         Array.to_list dom.Sim_vmm.Domain.vcpus
         |> List.filter Sim_vmm.Vcpu.is_ready
         |> List.map (fun v -> v.Sim_vmm.Vcpu.home)
       in
       if List.length (List.sort_uniq compare homes) <> List.length homes then
         incr violations
     end);
    ignore (Sim_engine.Engine.schedule_after s.Scenario.engine ~delay:(ms 3) check)
  in
  ignore (Sim_engine.Engine.schedule_after s.Scenario.engine ~delay:0 check);
  let _ = Runner.run_window s ~sec:1.5 in
  Alcotest.(check bool) "sampled HIGH state" true (!samples > 0);
  Alcotest.(check int) "ready siblings on distinct pcpus" 0 !violations

let test_boost_cleared_on_low () =
  let s = high_scenario Config.Asman in
  let inst = Scenario.find_vm s "V" in
  let dom = inst.Scenario.domain in
  let violations = ref 0 in
  let rec check () =
    (if dom.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.Low then
       Array.iter
         (fun (v : Sim_vmm.Vcpu.t) ->
           if v.Sim_vmm.Vcpu.boosted && Sim_vmm.Vcpu.is_ready v then
             incr violations)
         dom.Sim_vmm.Domain.vcpus);
    ignore (Sim_engine.Engine.schedule_after s.Scenario.engine ~delay:(ms 5) check)
  in
  ignore (Sim_engine.Engine.schedule_after s.Scenario.engine ~delay:0 check);
  let _ = Runner.run_window s ~sec:1.5 in
  Alcotest.(check int) "no stale boosts while LOW" 0 !violations

let test_static_cosched_ignores_vcrd () =
  (* CON gang-schedules concurrent-typed VMs even when monitoring is
     disabled (no VCRD reports at all). *)
  let quiet =
    let p = Config.guest_params config in
    {
      p with
      Sim_guest.Kernel.monitor =
        { p.Sim_guest.Kernel.monitor with Sim_guest.Monitor.report_vcrd = false };
    }
  in
  let config_quiet = { config with Config.guest_params = Some quiet } in
  let s =
    Scenario.build
      (Config.with_work_conserving config_quiet false)
      ~sched:Config.Cosched_static
      ~vms:
        [ { Scenario.vm_name = "V"; weight = 64; vcpus = 4;
            workload = Some (nas Sim_workloads.Nas.LU) } ]
  in
  let m = Runner.run_window s ~sec:1.0 in
  Alcotest.(check bool) "still coschedules (ipis)" true (m.Runner.ipis > 0);
  let vm = Runner.vm_metrics m ~vm:"V" in
  Alcotest.(check int) "no vcrd flips" 0 vm.Runner.vcrd_transitions

let test_gang_improves_barrier_workload () =
  (* Direct mechanism check on a pure barrier loop at 40%: the gang
     schedulers beat the Credit baseline. *)
  let time sched =
    let workload =
      Sim_workloads.Synthetic.barrier_loop ~threads:4 ~rounds:60
        ~compute_cycles:(ms 2) ~cv:0.005 ()
    in
    let s =
      Scenario.build
        (Config.with_work_conserving config false)
        ~sched
        ~vms:[ { Scenario.vm_name = "V"; weight = 64; vcpus = 4; workload = Some workload } ]
    in
    let m = Runner.run_rounds s ~rounds:1 ~max_sec:30. in
    Runner.first_round_sec m ~vm:"V"
  in
  let credit = time Config.Credit in
  let con = time Config.Cosched_static in
  Alcotest.(check bool)
    (Printf.sprintf "static gang faster (%.3f vs %.3f)" con credit)
    true (con < credit)

let test_hypercall_stats () =
  let s = high_scenario Config.Asman in
  let inst = Scenario.find_vm s "V" in
  let _ = Runner.run_window s ~sec:1.0 in
  match inst.Scenario.kernel with
  | Some k ->
    let hc = Sim_guest.Kernel.hypercall k in
    let stats = Sim_vmm.Hypercall.stats_for hc inst.Scenario.domain in
    Alcotest.(check bool) "to_high counted" true (stats.Sim_vmm.Hypercall.to_high > 0);
    Alcotest.(check bool) "total >= to_high" true
      (Sim_vmm.Hypercall.total_calls hc >= stats.Sim_vmm.Hypercall.to_high)
  | None -> Alcotest.fail "no kernel"

(* The planted [Double_insert_reloc] mutation makes a relocation leave
   the VCPU in its old run queue as well; the per-period structural
   audit, which counts queue membership in one pass, must name it. *)
let test_double_insert_reloc_reported () =
  let open Sim_vmm in
  let engine = Sim_engine.Engine.create () in
  let machine =
    Sim_hw.Machine.create engine Sim_hw.Cpu_model.default
      (Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:2)
  in
  let api = ref None in
  let vmm =
    Vmm.create machine ~sched:(fun a ->
        api := Some a;
        Sched_credit.make a)
  in
  let dom = Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus:1 () in
  let v = dom.Domain.vcpus.(0) in
  (* Parked, so the wake leaves it queued on PCPU 0 instead of running. *)
  v.Vcpu.parked <- true;
  Vmm.vcpu_wake vmm v;
  Alcotest.(check (result unit string)) "clean before the relocation"
    (Ok ()) (Vmm.check_invariants vmm);
  Fun.protect
    ~finally:(fun () -> Mutation.set None)
    (fun () ->
      Mutation.set (Some Mutation.Double_insert_reloc);
      (Option.get !api).Sched_intf.migrate v ~dst:1);
  Alcotest.(check (result unit string)) "the double insert is reported"
    (Error (Printf.sprintf "ready vcpu %d is in 2 queues" v.Vcpu.id))
    (Vmm.check_invariants vmm)

(* ----- the steal scan against a full scan -----

   [Sched_common.steal] follows the run queues' occupancy bitmap and
   visits only non-empty queues. [full_scan] is the reference: every
   queue in PCPU order, the same-socket pass first under the
   NUMA model, strictly more credit to displace the incumbent. Random
   scripts of inserts, removals and steals over 8 to 128 PCPUs (one
   to four bitmap words) must pick the same VCPU every time and keep
   the structural audit, occupancy bits included, clean. *)
let full_scan (api : Sim_vmm.Sched_intf.api) ~dst ~under_only ~allowed =
  let open Sim_vmm in
  let pass local =
    Array.fold_left
      (fun best rq ->
        let src = Runqueue.pcpu rq in
        let considered =
          src <> dst
          &&
          match api.Sched_intf.numa with
          | None -> true
          | Some { Sched_intf.topo; _ } ->
            Sim_hw.Topology.same_socket topo src dst = local
        in
        if not considered then best
        else
          List.fold_left
            (fun best (v : Vcpu.t) ->
              if
                v.Vcpu.boosted || v.Vcpu.parked
                || (under_only && v.Vcpu.credit <= 0)
                || not (allowed v ~dst)
              then best
              else
                match best with
                | Some (b : Vcpu.t) when v.Vcpu.credit <= b.Vcpu.credit -> best
                | Some _ | None -> Some v)
            best (Runqueue.to_list rq))
      None api.Sched_intf.runqueues
  in
  match (pass true, api.Sched_intf.numa) with
  | None, Some _ -> pass false
  | found, _ -> found

let steal_script ~seed ~pcpus ~numa =
  let open Sim_vmm in
  let rng = Sim_engine.Rng.create seed in
  let sockets = if pcpus <= 32 then 2 else 4 in
  let topo = Sim_hw.Topology.make ~sockets ~cores_per_socket:(pcpus / sockets) in
  let machine =
    Sim_hw.Machine.create (Sim_engine.Engine.create ()) Sim_hw.Cpu_model.default
      topo
  in
  let numa =
    if numa then Some { Sched_intf.topo; reloc_penalty_cycles = 0 } else None
  in
  let api = ref None in
  let vmm =
    Vmm.create ?numa machine ~sched:(fun a ->
        api := Some a;
        Sched_credit.make a)
  in
  let api = Option.get !api in
  let vcpus =
    Array.concat
      (List.init 3 (fun i ->
           (Vmm.create_domain vmm ~name:(Printf.sprintf "V%d" i) ~weight:256
              ~vcpus:8 ())
             .Domain.vcpus))
  in
  let pick_where f =
    match List.filter f (Array.to_list vcpus) with
    | [] -> None
    | l -> Some (List.nth l (Sim_engine.Rng.int rng (List.length l)))
  in
  let allowed_some (v : Vcpu.t) ~dst = (v.Vcpu.id + dst) mod 3 <> 0 in
  let ok = ref true in
  for _ = 1 to 300 do
    match Sim_engine.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> (
      match pick_where Vcpu.is_blocked with
      | None -> ()
      | Some v ->
        v.Vcpu.credit <- Sim_engine.Rng.int_in rng ~lo:(-50) ~hi:50;
        v.Vcpu.boosted <- Sim_engine.Rng.int rng 8 = 0;
        v.Vcpu.parked <- Sim_engine.Rng.int rng 8 = 0;
        v.Vcpu.state <- Vcpu.Ready;
        Runqueue.insert api.Sched_intf.runqueues.(Sim_engine.Rng.int rng pcpus) v)
    | 4 | 5 -> (
      match pick_where Vcpu.is_ready with
      | None -> ()
      | Some v ->
        Runqueue.remove api.Sched_intf.runqueues.(v.Vcpu.home) v;
        v.Vcpu.state <- Vcpu.Blocked)
    | _ ->
      let dst = Sim_engine.Rng.int rng pcpus in
      let under_only = Sim_engine.Rng.bool rng in
      let allowed =
        if Sim_engine.Rng.bool rng then Sched_common.allow_any else allowed_some
      in
      let expected = full_scan api ~dst ~under_only ~allowed in
      let got = Sched_common.steal api ~dst ~under_only ~allowed in
      let same =
        match (expected, got) with
        | None, None -> true
        | Some a, Some b -> a == b && b.Vcpu.home = dst
        | Some _, None | None, Some _ -> false
      in
      if not same then ok := false;
      (match Vmm.check_invariants vmm with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e)
  done;
  !ok

let prop_steal_matches_full_scan =
  QCheck.Test.make ~count:200 ~name:"steal over occupied queues = full scan"
    QCheck.(triple int64 (oneofl [ 8; 32; 64; 128 ]) bool)
    (fun (seed, pcpus, numa) -> steal_script ~seed ~pcpus ~numa)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_steal_matches_full_scan;
    Alcotest.test_case "work stealing" `Quick test_work_stealing_spreads_load;
    Alcotest.test_case "double-insert-reloc is reported" `Quick
      test_double_insert_reloc_reported;
    Alcotest.test_case "overcommit" `Quick test_more_vcpus_than_pcpus;
    Alcotest.test_case "cap enforced" `Slow test_cap_is_enforced_per_scheduler;
    Alcotest.test_case "ipis only from gangs" `Quick
      test_asman_sends_ipis_credit_does_not;
    Alcotest.test_case "relocation distinct" `Quick test_relocation_distinct_pcpus;
    Alcotest.test_case "boost cleared on low" `Quick test_boost_cleared_on_low;
    Alcotest.test_case "static ignores vcrd" `Quick test_static_cosched_ignores_vcrd;
    Alcotest.test_case "gang beats credit on barriers" `Slow
      test_gang_improves_barrier_workload;
    Alcotest.test_case "hypercall stats" `Quick test_hypercall_stats;
  ]
