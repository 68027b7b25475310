(* Decoupled VMM on the PDES fabric: cross-shard message ordering
   under the (time, src, seq) discipline, the steal protocol's race
   behaviour (same-window contention, stale requests after the target
   migrated), worker-count invariance of full decoupled scenarios, and
   the mailbox hot path's zero-allocation contract. *)

open Sim_engine
open Asman

(* ----- mailbox (time, src, seq) ordering ----- *)

let flush_order mb =
  let order = ref [] in
  ignore (Mailbox.flush mb (fun ~time:_ act -> act ()));
  ignore order;
  ()

let _ = flush_order

let test_mailbox_orders_by_time () =
  let mb = Mailbox.create ~cap:4 () in
  let order = ref [] in
  let mark x () = order := x :: !order in
  Mailbox.post mb ~time:30 ~src:0 ~seq:0 (mark 30);
  Mailbox.post mb ~time:10 ~src:0 ~seq:1 (mark 10);
  Mailbox.post mb ~time:20 ~src:0 ~seq:2 (mark 20);
  let n = Mailbox.flush mb (fun ~time:_ act -> act ()) in
  Alcotest.(check int) "three delivered" 3 n;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !order)

(* Equal-time mail from different sources delivers in source order —
   the tie-break that makes a window boundary race (two shards posting
   at the same timestamp) deterministic. *)
let test_mailbox_ties_break_on_src () =
  let mb = Mailbox.create ~cap:4 () in
  let order = ref [] in
  let mark x () = order := x :: !order in
  Mailbox.post mb ~time:100 ~src:2 ~seq:0 (mark 2);
  Mailbox.post mb ~time:100 ~src:0 ~seq:0 (mark 0);
  Mailbox.post mb ~time:100 ~src:1 ~seq:0 (mark 1);
  ignore (Mailbox.flush mb (fun ~time:_ act -> act ()));
  Alcotest.(check (list int)) "src order at equal time" [ 0; 1; 2 ]
    (List.rev !order)

(* Equal (time, src) falls back to the per-src sequence: one source's
   same-timestamp posts keep their program order. *)
let test_mailbox_ties_break_on_seq () =
  let mb = Mailbox.create ~cap:4 () in
  let order = ref [] in
  let mark x () = order := x :: !order in
  Mailbox.post mb ~time:100 ~src:1 ~seq:7 (mark 7);
  Mailbox.post mb ~time:100 ~src:1 ~seq:5 (mark 5);
  Mailbox.post mb ~time:100 ~src:1 ~seq:6 (mark 6);
  ignore (Mailbox.flush mb (fun ~time:_ act -> act ()));
  Alcotest.(check (list int)) "seq order at equal (time, src)" [ 5; 6; 7 ]
    (List.rev !order)

(* ----- mailbox hot path allocates nothing (regression) ----- *)

let test_mailbox_flush_zero_alloc () =
  let mb = Mailbox.create ~cap:16 () in
  let nop () = () in
  let sink ~time:_ (_ : unit -> unit) = () in
  (* warm up past the doubling threshold so steady state is reached *)
  for i = 0 to 127 do
    Mailbox.post mb ~time:i ~src:0 ~seq:i nop
  done;
  ignore (Mailbox.flush mb sink);
  let before = Gc.minor_words () in
  for w = 0 to 9 do
    for i = 0 to 99 do
      Mailbox.post mb ~time:((w * 100) + i) ~src:(i land 3) ~seq:i nop
    done;
    ignore (Mailbox.flush mb sink)
  done;
  let words = Gc.minor_words () -. before in
  (* 1000 posts + 10 flushes; the budget covers Gc.minor_words's own
     boxed floats and nothing else — a per-message allocation would
     cost thousands of words *)
  Alcotest.(check bool)
    (Printf.sprintf "hot path allocation-free (%.0f minor words)" words)
    true
    (words < 256.)

(* ----- steal races on the fabric, modeled with a token ----- *)

(* The steal protocol's race shape, reduced to its ordering skeleton:
   a victim member holds one migratable token; thief members post
   steal requests; the victim grants to the first request its window
   delivers and nacks the rest. The full VMM rides exactly this
   discipline (Decouple.handle_steal_req), so these tests pin the
   ordering contract with none of the scheduler noise. *)

type steal_world = {
  fab : Fabric.t;
  mutable token_home : int;  (** member currently holding the token *)
  mutable grants : (int * int) list;  (** (thief, grant time), newest first *)
  mutable nacks : (int * int) list;
}

let la = 100

let make_world ?seed:(s = 1L) () =
  let engines =
    Array.init 3 (fun i -> Engine.create ~seed:(Int64.add s (Int64.of_int i)) ())
  in
  let fab = Fabric.create ~lookahead:la engines in
  ({ fab; token_home = 0; grants = []; nacks = [] }, engines)

(* Victim-side request handler: grant iff the token is still here —
   a request arriving after the token migrated is stale and nacks,
   never double-grants. *)
let handle_request w ~victim ~thief ~now =
  if w.token_home = victim then begin
    w.token_home <- -1 (* in flight: detached from the victim *);
    Fabric.post w.fab ~src:victim ~dst:thief ~time:(now + la) (fun () ->
        w.token_home <- thief;
        w.grants <- (thief, now + la) :: w.grants)
  end
  else
    Fabric.post w.fab ~src:victim ~dst:thief ~time:(now + la) (fun () ->
        w.nacks <- (thief, now + la) :: w.nacks)

(* Two thieves race for one token in the same window: requests from
   members 1 and 2 land at the victim at the same timestamp, so the
   (time, src, seq) order decides — member 1 wins, member 2 is nacked,
   and the outcome is identical at any worker count. *)
let run_same_window_race ~workers =
  let w, engines = make_world () in
  for thief = 1 to 2 do
    ignore
      (Engine.schedule_at engines.(thief) ~time:0 (fun () ->
           Fabric.post w.fab ~src:thief ~dst:0 ~time:la (fun () ->
               let now = Engine.now engines.(0) in
               handle_request w ~victim:0 ~thief ~now)))
  done;
  Fabric.run ~workers w.fab;
  (w.grants, w.nacks, Fabric.digest w.fab)

let test_same_window_steal_race () =
  let grants, nacks, _ = run_same_window_race ~workers:1 in
  Alcotest.(check (list (pair int int)))
    "lower-indexed thief wins the window"
    [ (1, 2 * la) ]
    grants;
  Alcotest.(check (list (pair int int)))
    "other thief nacked, not double-granted"
    [ (2, 2 * la) ]
    nacks

let test_same_window_steal_race_worker_invariant () =
  let g1, n1, d1 = run_same_window_race ~workers:1 in
  let g2, n2, d2 = run_same_window_race ~workers:2 in
  Alcotest.(check (list (pair int int))) "grants equal" g1 g2;
  Alcotest.(check (list (pair int int))) "nacks equal" n1 n2;
  Alcotest.(check int) "fabric digest equal" d1 d2

(* A stale request: thief 1 wins in an early window and the token
   moves; thief 2's request, posted two windows later, reaches a
   victim that no longer holds the token and must nack — the
   relocation's window barrier has already published the new home. *)
let test_stale_steal_request_after_migration () =
  let w, engines = make_world () in
  ignore
    (Engine.schedule_at engines.(1) ~time:0 (fun () ->
         Fabric.post w.fab ~src:1 ~dst:0 ~time:la (fun () ->
             let now = Engine.now engines.(0) in
             handle_request w ~victim:0 ~thief:1 ~now)));
  ignore
    (Engine.schedule_at engines.(2) ~time:(3 * la) (fun () ->
         Fabric.post w.fab ~src:2 ~dst:0 ~time:(4 * la) (fun () ->
             let now = Engine.now engines.(0) in
             handle_request w ~victim:0 ~thief:2 ~now)));
  Fabric.run ~workers:1 w.fab;
  Alcotest.(check (list (pair int int))) "first thief granted" [ (1, 2 * la) ]
    w.grants;
  Alcotest.(check int) "token lives with thief 1" 1 w.token_home;
  Alcotest.(check (list (pair int int)))
    "late request nacked after migration"
    [ (2, 5 * la) ]
    w.nacks

(* ----- full decoupled scenarios ----- *)

let dec_config ~sockets ~cores =
  {
    Config.default with
    Config.topology = Sim_hw.Topology.make ~sockets ~cores_per_socket:cores;
    scale = 0.05;
    seed = 11L;
    sim_jobs = 2;
  }

let heavy name = Scenario.vm ~name ~vcpus:2 ~weight:256
let light name = Scenario.vm ~name ~vcpus:1 ~weight:256

(* Round-robin split: even indices land on shard 0, odd on shard 1.
   The first shard is overcommitted with throughput VMs (6 VCPUs on 2 PCPUs,
   so preempted domains sit quiescent in the runqueues); shard 1's
   finite workloads drain fast and leave it idle — the balance ticks
   must then move work across. *)
let steal_scenario config =
  let wl d = Scenario.workload_of_desc config d in
  [
    heavy "vm0" (wl (Scenario.W_speccpu "gcc"));
    light "vm1" (wl (Scenario.W_compute { threads = 1; chunks = 3; chunk_us = 400 }));
    heavy "vm2" (wl (Scenario.W_nas "LU"));
    light "vm3" (wl (Scenario.W_compute { threads = 1; chunks = 3; chunk_us = 400 }));
    heavy "vm4" (wl (Scenario.W_speccpu "bzip2"));
    light "vm5" (wl (Scenario.W_compute { threads = 1; chunks = 3; chunk_us = 400 }));
  ]

let run_steal_scenario ~workers =
  let config = dec_config ~sockets:2 ~cores:2 in
  let d =
    Decouple.build config ~sched:Config.Asman ~vms:(steal_scenario config)
  in
  Decouple.run ~workers d ~rounds:2 ~max_sec:4.0

let test_decoupled_steals_move_work () =
  let r = run_steal_scenario ~workers:1 in
  Alcotest.(check bool)
    (Printf.sprintf "at least one grant (got %d of %d requests)"
       r.Decouple.rp_grants r.Decouple.rp_steal_reqs)
    true
    (r.Decouple.rp_grants >= 1);
  let migrated =
    List.filter (fun (_, migrations, _) -> migrations > 0) r.Decouple.rp_vms
  in
  Alcotest.(check bool) "a migrated VM exists" true (migrated <> []);
  List.iter
    (fun ((v : Runner.vm_metrics), _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s kept progressing after migration (%d rounds)"
           v.Runner.vm_name v.Runner.rounds)
        true
        (v.Runner.rounds >= 1))
    migrated;
  (* steal latency is the protocol's 2-window round trip *)
  Alcotest.(check bool) "steal latency positive" true
    (r.Decouple.rp_mean_steal_latency_cycles > 0.)

let test_decoupled_worker_invariance () =
  let r1 = run_steal_scenario ~workers:1 in
  let r2 = run_steal_scenario ~workers:2 in
  Alcotest.(check string) "fingerprints equal"
    r1.Decouple.rp_fingerprint r2.Decouple.rp_fingerprint;
  Alcotest.(check int) "digests equal" r1.Decouple.rp_digest
    r2.Decouple.rp_digest;
  Alcotest.(check int) "events equal" r1.Decouple.rp_events
    r2.Decouple.rp_events;
  Alcotest.(check int) "grants equal" r1.Decouple.rp_grants
    r2.Decouple.rp_grants;
  List.iter2
    (fun ((a : Runner.vm_metrics), ma, sa) ((b : Runner.vm_metrics), mb, sb) ->
      let name = a.Runner.vm_name in
      Alcotest.(check string) "vm name" name b.Runner.vm_name;
      Alcotest.(check int) (name ^ " rounds") a.Runner.rounds b.Runner.rounds;
      Alcotest.(check (float 0.))
        (name ^ " mean round")
        (Runner.mean_round a) (Runner.mean_round b);
      Alcotest.(check (float 0.))
        (name ^ " online rate")
        a.Runner.online_rate b.Runner.online_rate;
      Alcotest.(check int)
        (name ^ " over-threshold waits")
        a.Runner.spin_over_threshold b.Runner.spin_over_threshold;
      Alcotest.(check int)
        (name ^ " vcrd flips")
        a.Runner.vcrd_transitions b.Runner.vcrd_transitions;
      Alcotest.(check bool) (name ^ " whole record") true (a = b);
      Alcotest.(check int) (name ^ " migrations") ma mb;
      Alcotest.(check int) (name ^ " final shard") sa sb)
    r1.Decouple.rp_vms r2.Decouple.rp_vms

(* The only grant-bearing decoupled run with pinned outputs (the
   benchmark's decoupled workload steals nothing): any change to the
   migrate path's post order, times or state shows up here. *)
let test_decoupled_steal_pinned () =
  let r = run_steal_scenario ~workers:1 in
  Alcotest.(check int) "grants" 2 r.Decouple.rp_grants;
  Alcotest.(check int) "events" 41743 r.Decouple.rp_events;
  Alcotest.(check int) "digest" 4357812683845658914 r.Decouple.rp_digest

(* The steal run test_render pins (V2:EP migrates once): Runner's round
   clock follows each kernel across the move, so every VM's reported
   rounds are what its kernel completed, each round took time, and the
   migrated VM's outcome is measured like the others'. *)
let test_round_clock_across_a_move () =
  let config =
    {
      (Config.with_work_conserving (Config.with_scale Config.default 0.05) true)
      with
      Config.topology = Sim_hw.Topology.make ~sockets:2 ~cores_per_socket:2;
      sim_jobs = 2;
    }
  in
  let vms =
    Scenario.numbered_vms config ~weight:256
      Scenario.
        [
          W_speccpu "gcc"; W_nas "EP"; W_speccpu "gcc"; W_nas "EP";
          W_speccpu "bzip2"; W_nas "EP";
        ]
  in
  let d = Decouple.build config ~sched:Config.Asman ~vms in
  let r = Decouple.run ~workers:2 d ~rounds:2 ~max_sec:120. in
  let kernel name =
    List.concat_map
      (fun k -> (Decouple.scenario d k).Scenario.vms)
      (List.init (Decouple.shards d) Fun.id)
    |> List.find (fun (i : Scenario.vm_instance) ->
           i.Scenario.spec.Scenario.vm_name = name)
    |> fun i -> Option.get i.Scenario.kernel
  in
  Alcotest.(check (list (pair string int)))
    "V2:EP is the one migrated VM" [ ("V2:EP", 1) ]
    (List.filter_map
       (fun ((v : Runner.vm_metrics), m, _) ->
         if m > 0 then Some (v.Runner.vm_name, m) else None)
       r.Decouple.rp_vms);
  List.iter
    (fun ((v : Runner.vm_metrics), _, _) ->
      let name = v.Runner.vm_name in
      Alcotest.(check int)
        (name ^ " rounds = kernel's min_rounds")
        (Sim_guest.Kernel.min_rounds (kernel name))
        v.Runner.rounds;
      List.iteri
        (fun i sec ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round %d lasts %.6f s > 0" name (i + 1) sec)
            true (sec > 0.))
        v.Runner.round_sec;
      Alcotest.(check bool)
        (Printf.sprintf "%s mean round %f is finite" name (Runner.mean_round v))
        true
        (Float.is_finite (Runner.mean_round v)))
    r.Decouple.rp_vms

(* Build-time preconditions: misaligned topology and missing VMs are
   rejected up front, not discovered as a mid-run crash. *)
let test_build_rejects_bad_shapes () =
  let config = dec_config ~sockets:3 ~cores:2 in
  let vms = steal_scenario config in
  Alcotest.check_raises "sockets not divisible by shards"
    (Invalid_argument
       "Decouple.build: 3 sockets cannot split into 2 socket-aligned shards \
        (pick --topology SxC with S a multiple of --sim-jobs)")
    (fun () -> ignore (Decouple.build config ~sched:Config.Asman ~vms));
  let config1 = { (dec_config ~sockets:2 ~cores:2) with Config.sim_jobs = 1 } in
  Alcotest.check_raises "one shard is not decoupled"
    (Invalid_argument "Decouple.build: needs --sim-jobs >= 2")
    (fun () ->
      ignore (Decouple.build config1 ~sched:Config.Asman ~vms))

(* Parking a kernel that still owns pending events must refuse: the
   quiescence gate is what keeps a migrating domain's state complete
   inside the grant message. *)
let test_park_requires_quiescence () =
  let config =
    {
      Config.default with
      Config.topology = Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:2;
      scale = 0.05;
      seed = 3L;
    }
  in
  let wl = Scenario.workload_of_desc config (Scenario.W_speccpu "gcc") in
  let s =
    Scenario.build config ~sched:Config.Asman
      ~vms:[ Scenario.vm ~name:"vm0" ~vcpus:2 ~weight:256 wl ]
  in
  (* run mid-workload: the kernel is busy, not quiescent *)
  Sim_engine.Engine.run ~until:(Units.cycles_of_sec_f (Config.freq config) 0.05)
    s.Scenario.engine;
  let inst = List.hd s.Scenario.vms in
  match inst.Scenario.kernel with
  | None -> Alcotest.fail "workload VM has a kernel"
  | Some k ->
    Alcotest.(check bool) "kernel busy mid-run" false
      (Sim_guest.Kernel.quiescent k);
    Alcotest.check_raises "park refuses a busy kernel"
      (Failure "Kernel.park: kernel not quiescent") (fun () ->
        Sim_guest.Kernel.park k)

let suite =
  [
    Alcotest.test_case "mailbox: time order" `Quick test_mailbox_orders_by_time;
    Alcotest.test_case "mailbox: src tie-break" `Quick
      test_mailbox_ties_break_on_src;
    Alcotest.test_case "mailbox: seq tie-break" `Quick
      test_mailbox_ties_break_on_seq;
    Alcotest.test_case "mailbox: zero-alloc hot path" `Quick
      test_mailbox_flush_zero_alloc;
    Alcotest.test_case "same-window steal race" `Quick
      test_same_window_steal_race;
    Alcotest.test_case "same-window race is worker-invariant" `Quick
      test_same_window_steal_race_worker_invariant;
    Alcotest.test_case "stale request after migration nacks" `Quick
      test_stale_steal_request_after_migration;
    Alcotest.test_case "decoupled steals move work" `Quick
      test_decoupled_steals_move_work;
    Alcotest.test_case "decoupled run is worker-invariant" `Quick
      test_decoupled_worker_invariance;
    Alcotest.test_case "grant-bearing run is pinned" `Quick
      test_decoupled_steal_pinned;
    Alcotest.test_case "round clock across a move" `Quick
      test_round_clock_across_a_move;
    Alcotest.test_case "build rejects bad shapes" `Quick
      test_build_rejects_bad_shapes;
    Alcotest.test_case "park requires quiescence" `Quick
      test_park_requires_quiescence;
  ]
