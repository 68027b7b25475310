(* The multi-host substrate: one freeze-based migrate for every move.
   A quiescent guest lands at exactly now + lookahead + extra with both
   members' books and VMMs updated; a busy guest is frozen, drains,
   ships and resumes its rounds on the destination; an exhausted poll
   thaws the guest in place and nacks; outcomes are worker-count
   invariant. *)

open Asman

let config =
  {
    Config.default with
    Config.topology = Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:2;
    scale = 0.05;
    seed = 7L;
    obs = { Config.default.Config.obs with Config.hub = false };
  }

let freq = Config.freq config
let cycles sec = Sim_engine.Units.cycles_of_sec_f freq sec
let wl desc = Scenario.workload_of_desc config desc
let idle = { Scenario.vm_name = "idle"; weight = 256; vcpus = 1; workload = None }

(* Member 0 holds the guest under test, member 1 only an idle VM. *)
let two_hosts ?(launch = true) guest =
  let member vms launch =
    { Hosts.topology = config.Config.topology; vms; launch }
  in
  let h =
    Hosts.create config ~sched:Config.Asman
      [| member [ guest ] launch; member [ idle ] true |]
  in
  let vm =
    Hosts.adopt h ~member:0 (List.hd (Hosts.scenario h 0).Scenario.vms)
  in
  (h, vm)

let at h k time f =
  ignore (Sim_engine.Engine.schedule_at (Hosts.engine h k) ~time f)

let on_vmm h k (vm : Hosts.vm) =
  List.exists
    (fun (d : Sim_vmm.Domain.t) -> d == vm.Hosts.domain)
    (Sim_vmm.Vmm.domains (Hosts.scenario h k).Scenario.vmm)

let test_quiescent_lands_on_time () =
  let h, vm =
    two_hosts ~launch:false
      (Scenario.vm ~name:"guest" ~vcpus:2 (wl (Scenario.W_speccpu "gcc")))
  in
  let la = Hosts.lookahead h in
  let extra = 12_345 and start = (3 * la) + 17 in
  let downtime = ref (-1) and landed = ref (-1) in
  at h 0 start (fun () ->
      Hosts.migrate ~extra h vm ~dst:1
        ~shipped:(fun ~downtime:d -> downtime := d)
        ~nacked:(fun () -> Alcotest.fail "an unlaunched guest is quiescent")
        ~arrived:(fun () -> landed := Hosts.now h 1));
  let (_ : Hosts.run) = Hosts.run ~workers:1 ~until:(start + (4 * la)) h in
  Alcotest.(check int) "lands at now + lookahead + extra"
    (start + la + extra) !landed;
  Alcotest.(check int) "downtime is transit + extra" (la + extra) !downtime;
  Alcotest.(check int) "member updated" 1 vm.Hosts.member;
  Alcotest.(check int) "source books empty" 0
    (List.length (Hosts.residents h 0));
  Alcotest.(check bool) "destination books hold it" true
    (List.memq vm (Hosts.residents h 1));
  Alcotest.(check bool) "source VMM let it go" false (on_vmm h 0 vm);
  Alcotest.(check bool) "destination VMM holds it" true (on_vmm h 1 vm);
  Alcotest.(check bool) "launched on arrival" true
    (Sim_guest.Kernel.launched vm.Hosts.kernel)

type busy = {
  b_busy_at_request : bool;
  b_downtime : int;
  b_rounds_at_arrival : int;
  b_rounds_at_end : int;
  b_digest : int;
}

(* A running gcc guest is asked to move 50 ms in and observed for 2 s. *)
let busy_migration ~workers =
  let h, vm =
    two_hosts (Scenario.vm ~name:"guest" ~vcpus:2 (wl (Scenario.W_speccpu "gcc")))
  in
  let busy = ref false and downtime = ref (-1) and arrival_rounds = ref (-1) in
  at h 0 (cycles 0.05) (fun () ->
      busy := not (Sim_guest.Kernel.quiescent vm.Hosts.kernel);
      Hosts.migrate h vm ~dst:1
        ~shipped:(fun ~downtime:d -> downtime := d)
        ~nacked:(fun () -> Alcotest.fail "the freeze drain never landed")
        ~arrived:(fun () ->
          arrival_rounds := Sim_guest.Kernel.min_rounds vm.Hosts.kernel));
  let (_ : Hosts.run) = Hosts.run ~workers ~until:(cycles 2.0) h in
  Alcotest.(check int) "ends on the destination" 1 vm.Hosts.member;
  Alcotest.(check bool) "thawed" false
    (Sim_guest.Kernel.freeze_requested vm.Hosts.kernel);
  {
    b_busy_at_request = !busy;
    b_downtime = !downtime;
    b_rounds_at_arrival = !arrival_rounds;
    b_rounds_at_end = Sim_guest.Kernel.min_rounds vm.Hosts.kernel;
    b_digest = Sim_engine.Fabric.digest (Hosts.fabric h);
  }

let test_busy_freezes_and_resumes () =
  let b = busy_migration ~workers:1 in
  let la = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
  Alcotest.(check bool) "busy when asked" true b.b_busy_at_request;
  Alcotest.(check bool)
    (Printf.sprintf "drained before shipping (downtime %d)" b.b_downtime)
    true
    (b.b_downtime > la);
  Alcotest.(check bool)
    (Printf.sprintf "rounds resume on the destination (%d -> %d)"
       b.b_rounds_at_arrival b.b_rounds_at_end)
    true
    (b.b_rounds_at_arrival >= 0 && b.b_rounds_at_end > b.b_rounds_at_arrival)

let test_busy_worker_invariant () =
  let b1 = busy_migration ~workers:1 in
  let b2 = busy_migration ~workers:2 in
  Alcotest.(check int) "digest" b1.b_digest b2.b_digest;
  Alcotest.(check int) "downtime" b1.b_downtime b2.b_downtime;
  Alcotest.(check int) "rounds" b1.b_rounds_at_end b2.b_rounds_at_end

(* One 2 s compute instruction keeps the VCPU online far past the
   poll bound: the guest is thawed where it is and the move nacks. *)
let test_exhausted_poll_thaws_in_place () =
  let h, vm =
    two_hosts
      (Scenario.vm ~name:"guest" ~vcpus:1
         (wl
            (Scenario.W_compute
               { threads = 1; chunks = 1; chunk_us = 2_000_000 })))
  in
  let la = Hosts.lookahead h in
  let start = cycles 0.01 in
  let nacked_at = ref (-1) in
  at h 0 start (fun () ->
      Hosts.migrate h vm ~dst:1
        ~nacked:(fun () -> nacked_at := Hosts.now h 0)
        ~arrived:(fun () -> Alcotest.fail "a pinned guest must not move"));
  let (_ : Hosts.run) =
    Hosts.run ~workers:1 ~until:(start + ((Hosts.poll_bound + 2) * la)) h
  in
  Alcotest.(check int) "nack after the last re-poll"
    (start + (Hosts.poll_bound * la))
    !nacked_at;
  Alcotest.(check bool) "thawed" false
    (Sim_guest.Kernel.freeze_requested vm.Hosts.kernel);
  Alcotest.(check int) "not moved" 0 vm.Hosts.member;
  Alcotest.(check bool) "still in the source books" true
    (List.memq vm (Hosts.residents h 0));
  Alcotest.(check bool) "still on the source VMM" true (on_vmm h 0 vm);
  Alcotest.(check bool) "nothing on the destination" false (on_vmm h 1 vm)

let suite =
  [
    Alcotest.test_case "quiescent guest lands at now + lookahead + extra"
      `Quick test_quiescent_lands_on_time;
    Alcotest.test_case "busy guest freezes, ships and resumes" `Quick
      test_busy_freezes_and_resumes;
    Alcotest.test_case "busy migration is worker-invariant" `Quick
      test_busy_worker_invariant;
    Alcotest.test_case "exhausted poll thaws in place and nacks" `Quick
      test_exhausted_poll_thaws_in_place;
  ]
