(* Conservative PDES fabric: window protocol, cross-member mail
   ordering, cancellation across mail delivery, and the -j1-vs-jN
   determinism contract over full Engine members. *)

open Sim_engine

let fabric ?(members = 1) ~lookahead () =
  Fabric.create ~lookahead (Array.init members (fun _ -> Engine.create ()))

let at fab m ~time f = Engine.schedule_at (Fabric.member fab m) ~time f

let now fab m = Engine.now (Fabric.member fab m)

(* ----- window protocol ----- *)

(* An event exactly at the lookahead edge belongs to the next window:
   with lookahead 100 and events at t=0 and t=100, the first window
   drains strictly below 0 + 100 — so the run takes exactly two
   windows. *)
let test_horizon_edge_defers () =
  let fab = fabric ~lookahead:100 () in
  let order = ref [] in
  ignore (at fab 0 ~time:0 (fun () -> order := 0 :: !order));
  ignore (at fab 0 ~time:100 (fun () -> order := 100 :: !order));
  Fabric.run ~workers:1 fab;
  Alcotest.(check (list int)) "both fired in order" [ 0; 100 ] (List.rev !order);
  Alcotest.(check int) "two windows" 2 (Fabric.windows fab)

(* Events strictly inside the horizon all drain in one window. *)
let test_within_horizon_one_window () =
  let fab = fabric ~lookahead:100 () in
  for time = 0 to 99 do
    ignore (at fab 0 ~time (fun () -> ()))
  done;
  Fabric.run ~workers:1 fab;
  Alcotest.(check int) "one window" 1 (Fabric.windows fab);
  Alcotest.(check int) "all fired" 100 (Fabric.events_fired fab)

(* [until] clamps every member clock even when queues still hold
   events, mirroring Engine.run. *)
let test_until_clamps_clocks () =
  let fab = fabric ~members:2 ~lookahead:10 () in
  ignore (at fab 0 ~time:5 (fun () -> ()));
  ignore (at fab 1 ~time:500 (fun () -> ()));
  Fabric.run ~workers:1 ~until:50 fab;
  Alcotest.(check int) "member 0 clock at until" 50 (now fab 0);
  Alcotest.(check int) "member 1 clock at until" 50 (now fab 1);
  Alcotest.(check int) "late event still queued" 1 (Fabric.events_fired fab)

(* ----- post contract ----- *)

let test_post_below_lookahead_rejected () =
  let fab = fabric ~members:2 ~lookahead:100 () in
  ignore
    (at fab 0 ~time:50 (fun () ->
         (* clock is 50; lookahead demands time >= 150. *)
         Alcotest.check_raises "sub-lookahead post rejected"
           (Invalid_argument
              "Fabric.post: time 149 violates lookahead (member 0 clock 50 + \
               100)")
           (fun () -> Fabric.post fab ~src:0 ~dst:1 ~time:149 (fun () -> ()))));
  Fabric.run ~workers:1 fab

let test_post_at_lookahead_accepted () =
  let fab = fabric ~members:2 ~lookahead:100 () in
  let delivered = ref (-1) in
  ignore
    (at fab 0 ~time:50 (fun () ->
         Fabric.post fab ~src:0 ~dst:1 ~time:150 (fun () ->
             delivered := now fab 1)));
  Fabric.run ~workers:1 fab;
  Alcotest.(check int) "delivered exactly at lookahead edge" 150 !delivered;
  Alcotest.(check int) "one cross post" 1 (Fabric.cross_posts fab)

(* Cross-member mail fires in (time, src, per-src post order) no
   matter the order the posts were made in, on one worker and on two. *)
let test_mail_order () =
  List.iter
    (fun workers ->
      let fab = fabric ~members:3 ~lookahead:10 () in
      let log = ref [] in
      let arrival tag () = log := tag :: !log in
      (* Members 0 and 1 each post to member 2 from their t=0 events;
         posts land at mixed times and are made in an order that
         disagrees with (time, src, post order). *)
      ignore
        (at fab 0 ~time:0 (fun () ->
             Fabric.post fab ~src:0 ~dst:2 ~time:30 (arrival "t30-src0-a");
             Fabric.post fab ~src:0 ~dst:2 ~time:20 (arrival "t20-src0");
             Fabric.post fab ~src:0 ~dst:2 ~time:30 (arrival "t30-src0-b")));
      ignore
        (at fab 1 ~time:0 (fun () ->
             Fabric.post fab ~src:1 ~dst:2 ~time:30 (arrival "t30-src1");
             Fabric.post fab ~src:1 ~dst:2 ~time:20 (arrival "t20-src1")));
      Fabric.run ~workers fab;
      Alcotest.(check (list string))
        (Printf.sprintf "delivery order is (time, src, seq) at %d workers"
           workers)
        [ "t20-src0"; "t20-src1"; "t30-src0-a"; "t30-src0-b"; "t30-src1" ]
        (List.rev !log))
    [ 1; 2 ]

(* ----- cancel ----- *)

(* Cancelling from inside the drained window: an early event unlinks a
   later event of the same window mid-drain; the victim must not fire,
   and re-cancelling the now-stale handle must be a no-op. *)
let test_cancel_inside_drained_window () =
  let fab = fabric ~lookahead:100 () in
  let e = Fabric.member fab 0 in
  let fired = ref [] in
  let victim = ref (-1) in
  let live = ref false in
  let stale = ref true in
  ignore
    (at fab 0 ~time:5 (fun () ->
         fired := 5 :: !fired;
         live := Engine.is_pending e !victim;
         Engine.cancel e !victim;
         Engine.cancel e !victim;
         stale := Engine.is_pending e !victim));
  ignore (at fab 0 ~time:7 (fun () -> fired := 7 :: !fired));
  victim := at fab 0 ~time:8 (fun () -> fired := 8 :: !fired);
  Fabric.run ~workers:1 fab;
  Alcotest.(check (list int)) "victim never fired" [ 5; 7 ] (List.rev !fired);
  Alcotest.(check bool) "victim was live when cancelled" true !live;
  Alcotest.(check bool) "victim is stale after cancel" false !stale;
  Alcotest.(check int) "two events fired" 2 (Fabric.events_fired fab)

(* Mail delivery recycles pooled queue slots on the destination
   member; cancelling a local decoy scheduled at the mailed event's
   exact fire time must unlink the decoy, never the mail. *)
let test_cancel_decoy_spares_mailed_event () =
  let fab = fabric ~members:2 ~lookahead:100 () in
  let e1 = Fabric.member fab 1 in
  let fired = ref [] in
  let decoy = at fab 1 ~time:200 (fun () -> fired := "decoy" :: !fired) in
  ignore
    (at fab 0 ~time:0 (fun () ->
         Fabric.post fab ~src:0 ~dst:1 ~time:200 (fun () ->
             fired := "mail" :: !fired)));
  ignore
    (at fab 1 ~time:150 (fun () ->
         Alcotest.(check bool)
           "decoy pending at cancel" true (Engine.is_pending e1 decoy);
         Engine.cancel e1 decoy));
  Fabric.run ~workers:1 fab;
  Alcotest.(check (list string))
    "mail delivered, decoy suppressed" [ "mail" ] (List.rev !fired);
  Alcotest.(check int) "one cross post" 1 (Fabric.cross_posts fab)

(* A mailed action fires on the destination member and may cancel
   destination-local events like any local action. *)
let test_mailed_action_cancels_local_event () =
  let fab = fabric ~members:2 ~lookahead:50 () in
  let e1 = Fabric.member fab 1 in
  let fired = ref [] in
  let doomed = at fab 1 ~time:120 (fun () -> fired := "doomed" :: !fired) in
  ignore
    (at fab 0 ~time:0 (fun () ->
         Fabric.post fab ~src:0 ~dst:1 ~time:100 (fun () ->
             fired := "mail" :: !fired;
             Alcotest.(check bool)
               "doomed still pending" true (Engine.is_pending e1 doomed);
             Engine.cancel e1 doomed)));
  Fabric.run ~workers:1 fab;
  Alcotest.(check (list string))
    "only the mail fired" [ "mail" ] (List.rev !fired)

(* ----- determinism contracts ----- *)

(* Mix a fire time into a commutative digest: summed over members, it
   is independent of the partition as long as the same events run. *)
let dg_mix time =
  let h = (time + 1) * 0x2545F4914F6CDD1 in
  (h lxor (h lsr 29)) land max_int

(* A deterministic little workload: self-rescheduling chains whose
   delays derive from (pcpu, fire time) only, plus cross-member posts —
   the same partition-independent construction the pdes bench uses.
   Returns the per-member commutative digest accumulators. *)
let build_chains fab ~pcpus ~lookahead:la =
  let members = Fabric.members fab in
  let member_of p = p * members / pcpus in
  let dg = Array.make members 0 in
  let note m = dg.(m) <- (dg.(m) + dg_mix (now fab m)) land max_int in
  let mix v =
    let h = v * 0x15813 in
    (h lxor (h lsr 17)) land 0xFFFFFF
  in
  for p = 0 to pcpus - 1 do
    let sp = member_of p in
    let sdst = member_of ((p + (pcpus / 2)) mod pcpus) in
    let rec act () =
      note sp;
      let time = now fab sp in
      let m = mix ((time * 61) + p) in
      if m land 7 = 0 then
        Fabric.post fab ~src:sp ~dst:sdst
          ~time:(time + la + 1 + (m lsr 3))
          (fun () -> note sdst);
      ignore (at fab sp ~time:(time + 1 + (m lsr 4)) act)
    in
    ignore (at fab sp ~time:(1 + mix (p * 977)) act)
  done;
  dg

(* Same partition, different worker counts: identical per-member
   streams, checked via the order-sensitive fingerprint. *)
let test_workers_irrelevant () =
  let run workers =
    let fab = fabric ~members:4 ~lookahead:1000 () in
    ignore (build_chains fab ~pcpus:16 ~lookahead:1000);
    Fabric.run ~workers ~until:100_000 fab;
    (Fabric.fingerprint fab, Fabric.events_fired fab)
  in
  let seq = run 1 in
  let par = run 4 in
  Alcotest.(check (pair string int)) "1 worker = 4 workers" seq par

(* Different partitions of the same chains: identical event multiset,
   checked via the commutative digest — the -j1-vs-jN oracle. *)
let test_partition_independent_digest () =
  let run members =
    let fab = fabric ~members ~lookahead:1000 () in
    let dg = build_chains fab ~pcpus:16 ~lookahead:1000 in
    Fabric.run ~workers:1 ~until:100_000 fab;
    ( Array.fold_left (fun acc d -> (acc + d) land max_int) 0 dg,
      Fabric.events_fired fab )
  in
  let d1, e1 = run 1 in
  let d2, e2 = run 2 in
  let d4, e4 = run 4 in
  Alcotest.(check int) "-j1 = -j2 events" e1 e2;
  Alcotest.(check int) "-j1 = -j4 events" e1 e4;
  Alcotest.(check int) "-j1 = -j2 digest" d1 d2;
  Alcotest.(check int) "-j1 = -j4 digest" d1 d4

(* A worker raising mid-window must not wedge or kill the team: the
   exception propagates to the caller after the window barrier. *)
let test_worker_exception_propagates () =
  let fab = fabric ~members:4 ~lookahead:10 () in
  ignore (at fab 2 ~time:5 (fun () -> failwith "boom"));
  Alcotest.check_raises "action exception reaches run" (Failure "boom")
    (fun () -> Fabric.run ~workers:4 fab)

let suite =
  [
    Alcotest.test_case "horizon edge defers" `Quick test_horizon_edge_defers;
    Alcotest.test_case "within horizon one window" `Quick
      test_within_horizon_one_window;
    Alcotest.test_case "until clamps clocks" `Quick test_until_clamps_clocks;
    Alcotest.test_case "post below lookahead rejected" `Quick
      test_post_below_lookahead_rejected;
    Alcotest.test_case "post at lookahead accepted" `Quick
      test_post_at_lookahead_accepted;
    Alcotest.test_case "mail order (time, src, seq)" `Quick test_mail_order;
    Alcotest.test_case "cancel inside drained window" `Quick
      test_cancel_inside_drained_window;
    Alcotest.test_case "cancel decoy spares mailed event" `Quick
      test_cancel_decoy_spares_mailed_event;
    Alcotest.test_case "mailed action cancels local event" `Quick
      test_mailed_action_cancels_local_event;
    Alcotest.test_case "worker count irrelevant" `Quick test_workers_irrelevant;
    Alcotest.test_case "partition-independent digest" `Quick
      test_partition_independent_digest;
    Alcotest.test_case "worker exception propagates" `Quick
      test_worker_exception_propagates;
  ]
