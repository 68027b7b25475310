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

(* A running guest moves A -> B -> A. Each move frees the kernel's
   timers (VCPU compute and slice, monitor window) on the source and
   binds new ones on the destination: right after each park, the
   source engine holds only its own machine's events, as many as the
   guest-free member 1 held before anything moved. *)
type round_trip = {
  r_background : int;
  r_after_park : int list;
  r_rounds : int list;  (** at each arrival, at the second departure, at the end *)
  r_member : int;
  r_digest : int;
}

let round_trip ~workers =
  let h, vm =
    two_hosts (Scenario.vm ~name:"guest" ~vcpus:2 (wl (Scenario.W_speccpu "gcc")))
  in
  let kernel = vm.Hosts.kernel in
  let background = ref (-1) and after_park = ref [] and rounds = ref [] in
  let note_rounds () = rounds := Sim_guest.Kernel.min_rounds kernel :: !rounds in
  let move ~src ~dst ~arrived =
    Hosts.migrate h vm ~dst
      ~shipped:(fun ~downtime:_ ->
        after_park :=
          Sim_engine.Engine.pending_count (Hosts.engine h src) :: !after_park)
      ~nacked:(fun () -> Alcotest.fail "the freeze drain never landed")
      ~arrived:(fun () ->
        note_rounds ();
        arrived ())
  in
  at h 1 (cycles 0.04) (fun () ->
      background := Sim_engine.Engine.pending_count (Hosts.engine h 1));
  at h 0 (cycles 0.05) (fun () ->
      move ~src:0 ~dst:1 ~arrived:(fun () ->
          ignore
            (Sim_engine.Engine.schedule_after (Hosts.engine h 1)
               ~delay:(cycles 0.6) (fun () ->
                 note_rounds ();
                 move ~src:1 ~dst:0 ~arrived:ignore))));
  let (_ : Hosts.run) = Hosts.run ~workers ~until:(cycles 2.0) h in
  note_rounds ();
  {
    r_background = !background;
    r_after_park = List.rev !after_park;
    r_rounds = List.rev !rounds;
    r_member = vm.Hosts.member;
    r_digest = Sim_engine.Fabric.digest (Hosts.fabric h);
  }

let test_round_trip_rebinds_timers () =
  let r = round_trip ~workers:1 in
  Alcotest.(check int) "back on A" 0 r.r_member;
  Alcotest.(check bool) "member 1 had events of its own" true
    (r.r_background > 0);
  Alcotest.(check (list int)) "source holds only its own events after each park"
    [ r.r_background; r.r_background ]
    r.r_after_park;
  (match r.r_rounds with
  | [ on_b; leaving_b; on_a; at_end ] ->
    Alcotest.(check bool)
      (Printf.sprintf "rounds on B (%d -> %d)" on_b leaving_b)
      true (leaving_b > on_b);
    Alcotest.(check bool) "no rounds in transit" true (on_a = leaving_b);
    Alcotest.(check bool)
      (Printf.sprintf "rounds back on A (%d -> %d)" on_a at_end)
      true (at_end > on_a)
  | _ -> Alcotest.fail "expected two arrivals");
  let r2 = round_trip ~workers:2 in
  Alcotest.(check int) "digest at workers 1 and 2" r.r_digest r2.r_digest;
  Alcotest.(check (list int)) "rounds at workers 1 and 2" r.r_rounds r2.r_rounds

(* A guest that sleeps between short computes moves A -> B. Park
   empties its continuation pool on A, so each sleep wake after the
   move is a pool entry bound on B's engine, and those wakes are what
   keep its marks coming. *)
let test_sleep_wakes_on_destination () =
  let us n = Sim_engine.Units.cycles_of_us freq n in
  let program =
    Sim_guest.Program.make
      [
        Sim_guest.Program.Compute (us 200);
        Sim_guest.Program.Sleep (us 500);
        Sim_guest.Program.Mark;
      ]
  in
  let workload =
    {
      Sim_workloads.Workload.name = "napper";
      kind = Sim_workloads.Workload.Throughput;
      threads = [ { Sim_workloads.Workload.affinity = 0; program; restart = true } ];
      barriers = [];
      semaphores = [];
    }
  in
  let h, vm = two_hosts (Scenario.vm ~name:"guest" ~vcpus:1 workload) in
  let kernel = vm.Hosts.kernel in
  let pool_at_park = ref (-1) and marks_at_arrival = ref (-1) in
  at h 0 (cycles 0.05) (fun () ->
      Hosts.migrate h vm ~dst:1
        ~shipped:(fun ~downtime:_ ->
          pool_at_park := Sim_guest.Kernel.pooled_continuations kernel)
        ~nacked:(fun () -> Alcotest.fail "the freeze drain never landed")
        ~arrived:(fun () ->
          marks_at_arrival := Sim_guest.Kernel.total_marks kernel));
  let (_ : Hosts.run) = Hosts.run ~workers:1 ~until:(cycles 0.5) h in
  Alcotest.(check int) "moved to B" 1 vm.Hosts.member;
  Alcotest.(check int) "park emptied the pool" 0 !pool_at_park;
  Alcotest.(check int) "one sleeper, one entry on B" 1
    (Sim_guest.Kernel.pooled_continuations kernel);
  let marks = Sim_guest.Kernel.total_marks kernel in
  Alcotest.(check bool)
    (Printf.sprintf "woken on B (marks %d -> %d)" !marks_at_arrival marks)
    true
    (!marks_at_arrival >= 0 && marks > !marks_at_arrival + 100)

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
    Alcotest.test_case "round trip A -> B -> A re-binds timers" `Quick
      test_round_trip_rebinds_timers;
    Alcotest.test_case "sleep wakes fire on the destination" `Quick
      test_sleep_wakes_on_destination;
    Alcotest.test_case "exhausted poll thaws in place and nacks" `Quick
      test_exhausted_poll_thaws_in_place;
  ]
