(* Differential tests: the timing-wheel event queue against the
   binary-heap oracle. Both backends must produce the exact same
   (time, seq) pop sequence for any schedule/cancel/arm/disarm script,
   and whole simulations must be bit-identical across backends. *)

open Sim_engine

(* ----- script interpreter -----

   A script is a list of operations driven through the Engine API
   against one backend; we record what it observes (fired events,
   cancel verdicts, peeks) and compare across backends. Operations
   reference previously returned handles by index, and timers by their
   index in a small pool bound at the start, so the same script is
   replayable on either backend. *)

type op =
  | Schedule of int (* delay from current time *)
  | Cancel of int (* cancel the [i mod live]-th outstanding handle *)
  | Pop (* fire the next event: [Engine.step] *)
  | Pop_until of int (* fire every event up to now + delta: [run ~until] *)
  | Peek (* [next_time], [pending_count] and every timer's [armed] *)
  | Arm of int * int (* timer [i mod pool], delay; disarmed first if armed *)
  | Disarm of int

type obs =
  | Fired of int * int (* fire time, schedule tag; timer i fires as -1 - i *)
  | Cancelled of int option (* the fire time, if the event was pending *)
  | Peeked of int option * int * bool list
  | Was_armed of bool (* a timer's state before [Arm] or [Disarm] *)

let timer_pool = 4

let run_script kind ops =
  let e = Engine.create ~queue:kind () in
  let handles = ref [] in
  let seen = ref [] in
  let note o = seen := o :: !seen in
  let tag = ref 0 in
  let timers =
    Array.init timer_pool (fun i ->
        Engine.timer e (fun () -> note (Fired (Engine.now e, -1 - i))))
  in
  let armed () = Array.to_list (Array.map (Engine.armed e) timers) in
  List.iter
    (fun op ->
      match op with
      | Schedule delay ->
        let id = !tag in
        incr tag;
        let h =
          Engine.schedule_at e ~time:(Engine.now e + delay) (fun () ->
              note (Fired (Engine.now e, id)))
        in
        handles := h :: !handles
      | Cancel i -> begin
        match !handles with
        | [] -> ()
        | hs ->
          let h = List.nth hs (i mod List.length hs) in
          note
            (Cancelled
               (if Engine.is_pending e h then Some (Engine.fire_time e h)
                else None));
          Engine.cancel e h
      end
      | Pop -> ignore (Engine.step e)
      | Pop_until delta -> Engine.run e ~until:(Engine.now e + delta)
      | Peek ->
        note (Peeked (Engine.next_time e, Engine.pending_count e, armed ()))
      | Arm (i, delay) ->
        let tm = timers.(i mod timer_pool) in
        note (Was_armed (Engine.armed e tm));
        Engine.disarm e tm;
        Engine.arm e tm ~delay
      | Disarm i ->
        let tm = timers.(i mod timer_pool) in
        note (Was_armed (Engine.armed e tm));
        Engine.disarm e tm)
    ops;
  (* Drain the queue to the end. *)
  Engine.run e;
  List.rev !seen

let check_script ops =
  let wheel = run_script Engine.Wheel_queue ops in
  let heap = run_script Engine.Heap_queue ops in
  wheel = heap

(* Delays that stress every region of the wheel: same-instant bursts
   (0), delays inside or just past the cursor's open 2^16-cycle slot
   (< 2^20), each wheel level (< 2^34), and the far-future heap beyond
   the wheel's 2^34 window (up to 2^40). *)
let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (4, int_range 1 4096);
        (4, int_range 4096 (1 lsl 20));
        (3, int_range (1 lsl 20) (1 lsl 26));
        (2, int_range (1 lsl 26) (1 lsl 32));
        (1, int_range (1 lsl 32) (1 lsl 38));
        (1, int_range (1 lsl 38) (1 lsl 40));
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Schedule d) delay_gen);
        (2, map (fun i -> Cancel i) (int_bound 1000));
        (3, return Pop);
        (2, map (fun d -> Pop_until d) delay_gen);
        (1, return Peek);
        (3, map2 (fun i d -> Arm (i, d)) (int_bound 7) delay_gen);
        (2, map (fun i -> Disarm i) (int_bound 7));
      ])

let shrink_op op =
  match op with
  | Schedule d -> QCheck.Iter.map (fun d -> Schedule d) (QCheck.Shrink.int d)
  | Cancel i -> QCheck.Iter.map (fun i -> Cancel i) (QCheck.Shrink.int i)
  | Pop | Peek -> QCheck.Iter.empty
  | Pop_until d -> QCheck.Iter.map (fun d -> Pop_until d) (QCheck.Shrink.int d)
  | Arm (i, d) -> QCheck.Iter.map (fun d -> Arm (i, d)) (QCheck.Shrink.int d)
  | Disarm _ -> QCheck.Iter.empty

let script_arb =
  QCheck.make
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Schedule d -> Printf.sprintf "S%d" d
             | Cancel i -> Printf.sprintf "C%d" i
             | Pop -> "P"
             | Pop_until d -> Printf.sprintf "U%d" d
             | Peek -> "N"
             | Arm (i, d) -> Printf.sprintf "A%d:%d" i d
             | Disarm i -> Printf.sprintf "D%d" i)
           ops))
    QCheck.Gen.(list_size (int_range 1 200) op_gen)

let prop_backends_agree =
  QCheck.Test.make ~count:300 ~name:"wheel and heap pop sequences agree"
    script_arb check_script

(* Directed scripts for the hand-picked hazards. *)
let test_same_time_burst () =
  let ops = List.init 50 (fun _ -> Schedule 100) @ [ Pop; Pop; Schedule 0 ] in
  Alcotest.(check bool) "burst" true (check_script ops)

let test_far_future () =
  let ops =
    [
      Schedule (1 lsl 39);
      Schedule 10;
      Pop;
      Schedule ((1 lsl 39) + 5);
      Pop;
      Schedule 1;
      Pop;
      Pop;
    ]
  in
  Alcotest.(check bool) "far future" true (check_script ops)

let test_cancel_everywhere () =
  let ops =
    [
      Schedule 10;
      Schedule (1 lsl 21);
      Schedule (1 lsl 30);
      Schedule (1 lsl 39);
      Cancel 0;
      Cancel 1;
      Cancel 2;
      Cancel 3;
      Schedule 5;
      Pop;
    ]
  in
  Alcotest.(check bool) "cancel everywhere" true (check_script ops)

(* ----- timers and eager heap removal -----

   A disarm or cancel takes its slot out of the near or far heap at
   once, through the slot's heap position; these scripts aim at the
   heap cases the random script reaches only rarely. *)

(* The events the script fired, in order: (time, tag). *)
let fired_of obs =
  List.filter_map (function Fired (t, tag) -> Some (t, tag) | _ -> None) obs

let check_timers name ops =
  Alcotest.(check bool) name true (check_script ops)

(* A timer in the near heap, disarmed and re-armed in the same
   instant: it must fire once, at its new time, after the events that
   were queued for that time before the re-arm. *)
let test_timer_near_rearm () =
  let ops =
    [
      Schedule 100; Arm (0, 100); Schedule 100; Disarm 0; Arm (0, 100);
      Peek; Arm (1, 50); Disarm 1; Arm (1, 50); Pop; Peek;
      Disarm 0; Arm (0, 50); Disarm 0; Arm (0, 50); Peek;
    ]
  in
  check_timers "near heap: disarm and re-arm in one instant" ops;
  Alcotest.(check (list (pair int int)))
    "fire order" [ (50, -2); (100, 0); (100, 1); (100, -1) ]
    (fired_of (run_script Engine.Wheel_queue ops))

(* A timer in the far heap (past the wheel's 2^34-cycle window),
   disarmed: it must never surface, neither in [next_time] nor through
   the cursor's fast-forward; re-armed, it fires at its new time. *)
let test_timer_far_disarm () =
  let far = 1 lsl 39 in
  let ops =
    [
      Arm (0, far); Arm (1, far + 5); Schedule (far + 1); Peek; Disarm 0;
      Peek; Pop; Peek; Disarm 1; Peek; Arm (0, far); Arm (2, 3); Disarm 2;
      Peek;
    ]
  in
  check_timers "far heap: disarm" ops;
  Alcotest.(check (list (pair int int)))
    "fire order" [ (far + 1, 0); (2 * far + 1, -1) ]
    (fired_of (run_script Engine.Wheel_queue ops))

(* One-shots removed from the middle of a slot heap, not its top: the
   hole is filled by the heap's last slot. Pushed in the first order,
   the heap's array is [40; 150; 50; 230; 200; 120; 110]; removing 230
   (index 3) moves 110 under 150, where it must sift up. In the second
   it is [100; 130; 180; 160; 260; 270]; removing 130 (index 1) moves
   270 above 160 and 260, where it must sift down. Either step left
   out fires the survivors out of order. Under the wheel the events
   sit in the near heap (one 2^16-cycle slot) and, shifted past 2^34,
   in the far heap. Handles index from the newest. *)
let test_cancel_mid_heap () =
  let cases =
    [
      ("sift up", [ 150; 120; 110; 230; 200; 40; 50 ], Cancel 3);
      ("sift down", [ 160; 130; 270; 100; 260; 180 ], Cancel 4);
    ]
  in
  List.iter
    (fun (heap, base) ->
      List.iter
        (fun (sift, times, cancel) ->
          let name = Printf.sprintf "%s heap, %s" heap sift in
          let ops =
            List.map (fun t -> Schedule (base + t)) times @ [ cancel; Peek ]
          in
          check_timers name ops;
          let fired =
            List.map fst (fired_of (run_script Engine.Wheel_queue ops))
          in
          Alcotest.(check int) (name ^ ": survivors")
            (List.length times - 1) (List.length fired);
          Alcotest.(check bool) (name ^ ": in time order") true
            (fired = List.sort compare fired))
        cases)
    [ ("near", 0); ("far", 1 lsl 36) ]

(* ----- the cursor skip -----

   When the near heap runs dry the wheel jumps its cursor to the next
   occupied level-1, level-2 or level-3 bucket, found by a word-at-a-time
   bitmap scan. These scripts put events exactly on the edges that
   scan and jump must get right; each is checked against the heap
   oracle. Scripts start at time 0, so a leading [Schedule d] lands at
   absolute time [d]. *)

let check_skip name ops = Alcotest.(check bool) name true (check_script ops)

(* Bucket starts at every level, with and without higher-level
   prefixes, scheduled up front and drained by the trailing pop loop;
   then the same times reached with the cursor already advanced. *)
let test_skip_bucket_starts () =
  let l1 k = k lsl 16 and l2 k = k lsl 22 and l3 k = k lsl 28 in
  let times =
    [
      l1 1; l1 2; l1 31; l1 32; l1 63;
      l2 1; l2 5; l2 5 + l1 7; l2 32; l2 63;
      l3 1; l3 1 + l2 3; l3 1 + l2 3 + l1 5; l3 7; l3 32; l3 63;
      (1 lsl 34) + l3 2 + l2 3; (1 lsl 34) + l2 9; (3 lsl 34) + l1 4;
    ]
  in
  check_skip "level-1/2/3 bucket starts" (List.map (fun t -> Schedule t) times);
  check_skip "bucket starts, reverse insertion"
    (List.rev_map (fun t -> Schedule t) times);
  (* Relative to a cursor sitting on a level-3 bucket start: the jumps
     must keep the cursor's level-3 prefix. *)
  check_skip "bucket starts after advancing"
    ([ Schedule (l3 1); Pop ]
    @ List.map (fun t -> Schedule t) [ l2 3; l2 7; l2 7 + l1 2; l1 9; l3 2 ]
    @ [ Pop; Schedule (l2 5); Pop; Schedule (l1 1); Pop; Pop ])

(* The near heap holds the cursor's open 2^16-cycle level-1 slot.
   Edges of that slot: its last cycle against the next slot's first,
   with the cursor on either side; events scheduled into the slot after
   the cursor opened it, which must join the near heap rather than the
   slot's already-cascaded level-1 bucket; and cancels of near-heap
   residents that lie ahead of the clock. *)
let test_near_window () =
  let l1 k = k lsl 16 in
  check_skip "open slot's last cycle vs next slot's first"
    [
      Schedule (l1 1); Schedule (l1 1 - 1); Pop; Pop;
      Schedule (l1 1); Schedule (l1 1 - 1); Schedule 0; Pop; Pop;
      Schedule (l1 1 - 1); Pop; Pop; Pop;
    ];
  check_skip "scheduled into the opened slot"
    [
      Schedule 100; Schedule (l1 1); Pop;
      Schedule 1000; Schedule (l1 1 - 101); Schedule 0; Pop; Pop; Pop;
      Schedule (l1 5 + 10); Pop; Schedule 100; Schedule (l1 1); Pop;
    ];
  (* The open slot at a level-2 and a level-3 window start, reached by
     a skip and by the far fast-forward. *)
  check_skip "scheduled into a slot opened by a jump"
    [
      Schedule (1 lsl 22); Schedule ((1 lsl 22) + 7); Pop;
      Schedule 50; Schedule (l1 1); Pop; Pop;
      Schedule ((1 lsl 34) + 3); Pop; Schedule 9; Schedule (l1 1); Pop; Pop;
    ];
  (* [Cancel 0] is the newest handle. *)
  check_skip "cancel a near resident ahead of the clock"
    [
      Schedule 100; Schedule 5000; Schedule 6000; Pop;
      Cancel 1; Schedule (l1 1); Pop; Pop;
      Schedule 10; Schedule 20; Pop; Cancel 0; Cancel 1; Schedule (l1 3); Pop;
    ]

(* Level-1 bucket indices on bitmap word edges (31 | 32, 63) and the
   last cycle of bucket 63, in the first level-2 window and in a later
   one. *)
let test_skip_word_edges () =
  let l1 i = i lsl 16 in
  let edges = [ l1 31; l1 32; l1 63; l1 64 - 1; l1 31 + 1; l1 32 - 1 ] in
  check_skip "level-1 word edges" (List.map (fun t -> Schedule t) edges);
  check_skip "level-1 word edges, later window"
    (List.map (fun t -> Schedule ((5 lsl 22) + t)) edges);
  check_skip "level-1 word edges, popped one by one"
    (List.concat_map (fun t -> [ Schedule t; Pop ]) edges
    @ List.concat_map (fun t -> [ Schedule t; Schedule (t + 1) ]) edges);
  (* Level-1/2/3 bucket indices on the same word edges. *)
  check_skip "upper-level word edges"
    (List.concat_map
       (fun i -> [ Schedule (i lsl 16); Schedule (i lsl 22); Schedule (i lsl 28) ])
       [ 31; 32; 63 ])

(* Times exactly on each level's window size, one cycle either side,
   and pops that leave the cursor on those boundaries. *)
let test_skip_window_edges () =
  let edges = [ 1 lsl 16; 1 lsl 22; 1 lsl 28; 1 lsl 34 ] in
  check_skip "window edges"
    (List.concat_map (fun t -> [ Schedule (t - 1); Schedule t; Schedule (t + 1) ]) edges);
  check_skip "window edges, one by one"
    (List.concat_map (fun t -> [ Schedule t; Pop; Schedule 0; Schedule 1; Pop ]) edges);
  check_skip "window edges, twice"
    (List.concat_map (fun t -> [ Schedule t; Schedule (2 * t); Pop ]) edges)

(* Cancels of events whose buckets the cursor then jumps over: the
   bucket's bit must clear, or the cursor stops on an empty bucket and
   must still find the right event. Handles index from the newest
   ([Cancel 0] is the last scheduled). *)
let test_skip_cancel_jumped () =
  check_skip "cancel in jumped-over buckets"
    [
      Schedule (5 lsl 16);
      Schedule (40 lsl 16);
      Schedule (3 lsl 22);
      Schedule (2 lsl 28);
      Schedule ((2 lsl 28) + (3 lsl 22));
      Schedule (1 lsl 34);
      Cancel 1; (* 2^28*2 *)
      Cancel 3; (* 3*2^22 *)
      Cancel 4; (* 40*2^16 *)
      Pop;
      Pop;
    ];
  check_skip "cancel every upper-level event"
    [
      Schedule (1 lsl 16);
      Schedule (9 lsl 16);
      Schedule (9 lsl 22);
      Schedule (9 lsl 28);
      Pop;
      Cancel 0;
      Cancel 1;
      Cancel 2;
      Schedule (17 lsl 16);
      Pop;
    ];
  (* Cancel after the cascade put the event into a lower level. *)
  check_skip "cancel after cascade"
    [
      Schedule (1 lsl 28);
      Schedule ((1 lsl 28) + (4 lsl 22));
      Schedule ((1 lsl 28) + (4 lsl 22) + (6 lsl 16));
      Schedule ((1 lsl 28) + (8 lsl 22));
      Pop;
      Cancel 1;
      Cancel 0;
      Pop;
    ]

(* [Pop_until] limits that fall in the empty gap the cursor jumps:
   the descent moves the cursor past the limit to the next event,
   which stays queued ([Peek] sees it) while the clock parks at the
   limit; events then scheduled inside the gap, behind the cursor,
   must still fire first. *)
let test_skip_pop_until_gap () =
  check_skip "Pop_until inside skipped gap"
    [
      Schedule (5 lsl 16);
      Schedule (40 lsl 22);
      Schedule ((1 lsl 28) + (2 lsl 22));
      Pop;
      Pop_until (10 lsl 22);
      Peek;
      Schedule 100;
      Schedule (3 lsl 16);
      Schedule (1 lsl 22);
      Pop;
      Pop_until (1 lsl 16);
      Peek;
      Pop;
      Pop_until ((1 lsl 28) - (1 lsl 22));
      Peek;
      Schedule 0;
      Pop;
      Pop;
    ];
  check_skip "Pop_until in gap, then exact limit"
    [
      Schedule (7 lsl 28);
      Pop_until (3 lsl 28);
      Peek;
      Pop_until (4 lsl 28);
      Peek;
      Schedule 1;
      Pop;
      Pop_until 0;
      Pop;
    ]

let test_lowest_set_bit () =
  for i = 0 to 31 do
    Alcotest.(check int) (Printf.sprintf "bit %d" i) i
      (Engine.lowest_set_bit (1 lsl i));
    (* higher bits set too, and the full word above bit i *)
    Alcotest.(check int) (Printf.sprintf "bits >= %d" i) i
      (Engine.lowest_set_bit (0xFFFFFFFF land (-1 lsl i)));
    Alcotest.(check int) (Printf.sprintf "bit %d and bit 31" i) i
      (Engine.lowest_set_bit ((1 lsl i) lor (1 lsl 31)))
  done

(* ----- the engine fire loop under cancellation -----

   [Engine.run ~until] fires through the queue's allocation-free
   ready/top-time/take primitives; cancelling events from inside the
   run window — including events later in the *same*
   window — must leave both backends with identical fire sequences and
   queue contents. *)

(* A cancel's verdict: whether the event was still pending. *)
let cancel e h =
  let pending = Engine.is_pending e h in
  Engine.cancel e h;
  pending

(* Directed: a run whose actions cancel later same-window events,
   re-cancel already-fired ones (stale, must be [false]), and schedule
   new events both inside and beyond the limit. *)
let drain_cancel_trace kind =
  let e = Engine.create ~queue:kind () in
  let fired = ref [] in
  let n = 24 in
  let handles = Array.make n (-1) in
  for i = 0 to n - 1 do
    (* pairs share fire times, so cancellation also crosses seq
       tie-breaks *)
    handles.(i) <-
      Engine.schedule_at e
        ~time:(10 * (i / 2))
        (fun () ->
          fired := i :: !fired;
          (* cancel an event later in the same window *)
          if i mod 3 = 0 && i + 5 < n then ignore (cancel e handles.(i + 5));
          (* stale: this very event is firing, cancel must refuse *)
          if cancel e handles.(i) then fired := -1 :: !fired;
          (* grow the window from inside the run... *)
          if i = 4 then
            ignore
              (Engine.schedule_at e ~time:95 (fun () -> fired := 100 :: !fired));
          (* ...and schedule beyond it, to be left queued *)
          if i = 6 then ignore (Engine.schedule_at e ~time:5000 (fun () -> ())))
  done;
  Engine.run e ~until:100;
  (List.rev !fired, Engine.pending_count e)

let test_drain_cancel_directed () =
  let wheel = drain_cancel_trace Engine.Wheel_queue in
  let heap = drain_cancel_trace Engine.Heap_queue in
  Alcotest.(check (pair (list int) int))
    "drain/cancel trace agrees with heap oracle" heap wheel;
  (* the cancellations actually bit: cancelled indices are absent *)
  let fired, leftover = wheel in
  Alcotest.(check bool) "i=5 cancelled by i=0" false (List.mem 5 fired);
  Alcotest.(check bool) "i=11 cancelled by i=6" false (List.mem 11 fired);
  Alcotest.(check bool) "no stale cancel succeeded" false (List.mem (-1) fired);
  Alcotest.(check bool) "in-window growth fired" true (List.mem 100 fired);
  Alcotest.(check int) "beyond-limit events left queued" 2 leftover

(* Seeded interleavings of a bounded run and cancel: every action
   flips a coin per outstanding handle; both backends must agree event
   for event. Deterministic per seed — no QCheck shrinking needed, a
   failing seed is the repro. *)
let drain_cancel_seeded seed kind =
  let rng = Rng.create (Int64.of_int seed) in
  let e = Engine.create ~queue:kind () in
  let fired = ref [] in
  let handles = ref [] in
  let tag = ref 0 in
  (* after the bounded run, the rest is drained and its fire times
     recorded separately *)
  let rest = ref [] in
  let draining_rest = ref false in
  let rec spawn time =
    let id = !tag in
    incr tag;
    if id < 400 then begin
      let h =
        Engine.schedule_at e ~time (fun () ->
            if !draining_rest then rest := time :: !rest;
            fired := (time, id) :: !fired;
            List.iter
              (fun h -> if Rng.int rng 8 = 0 then ignore (cancel e h))
              !handles;
            if Rng.int rng 3 = 0 then
              spawn (time + Rng.int_in rng ~lo:0 ~hi:300))
      in
      handles := h :: !handles
    end
  in
  for _ = 1 to 60 do
    spawn (Rng.int_in rng ~lo:0 ~hi:900)
  done;
  Engine.run e ~until:600;
  draining_rest := true;
  Engine.run e;
  (List.rev !fired, List.rev !rest)

let test_drain_cancel_seeded () =
  for seed = 1 to 20 do
    let wheel = drain_cancel_seeded seed Engine.Wheel_queue in
    let heap = drain_cancel_seeded seed Engine.Heap_queue in
    if wheel <> heap then
      Alcotest.failf "drain/cancel seed %d: wheel and heap disagree" seed
  done

(* Periodic chains with jitter, through the Engine API: both backends
   must see identical firing orders and clocks. *)
let engine_trace kind =
  let e = Engine.create ~seed:7L ~queue:kind () in
  let log = ref [] in
  let rng = Engine.rng e in
  let stop1 =
    Engine.periodic e ~start:0 ~period:1000
      ~jitter:(fun () -> Rng.int_in rng ~lo:0 ~hi:64)
      (fun () -> log := (Engine.now e, 1) :: !log)
  in
  let stop2 =
    Engine.periodic e ~start:500 ~period:700 (fun () ->
        log := (Engine.now e, 2) :: !log)
  in
  ignore
    (Engine.schedule_at e ~time:20_000 (fun () ->
         stop1 ();
         stop2 ()));
  Engine.run e;
  (Engine.now e, Engine.events_fired e, List.rev !log)

let test_engine_periodic_identical () =
  let w = engine_trace Engine.Wheel_queue in
  let h = engine_trace Engine.Heap_queue in
  Alcotest.(check bool) "periodic chains identical" true (w = h)

(* Whole-simulation determinism: fig1a outcomes must be identical
   between backends and across worker counts. *)
let test_fig1a_identical_across_backends () =
  let config = Asman.Config.{ default with scale = 0.02; seed = 5L } in
  let exp =
    match Asman.Experiments.find "fig1a" with
    | Some e -> e
    | None -> Alcotest.fail "fig1a not registered"
  in
  let run kind workers =
    Asman.Pool.set_jobs workers;
    exp.Asman.Experiments.run { config with Asman.Config.engine_queue = kind }
  in
  let base = run Engine.Heap_queue 1 in
  let wheel1 = run Engine.Wheel_queue 1 in
  let wheel4 = run Engine.Wheel_queue 4 in
  let heap4 = run Engine.Heap_queue 4 in
  Alcotest.(check bool) "wheel -j1 = heap -j1" true (wheel1 = base);
  Alcotest.(check bool) "wheel -j4 = heap -j1" true (wheel4 = base);
  Alcotest.(check bool) "heap -j4 = heap -j1" true (heap4 = base)

let suite =
  [
    Alcotest.test_case "same-time burst" `Quick test_same_time_burst;
    Alcotest.test_case "far future" `Quick test_far_future;
    Alcotest.test_case "cancel everywhere" `Quick test_cancel_everywhere;
    Alcotest.test_case "drain/cancel directed" `Quick test_drain_cancel_directed;
    Alcotest.test_case "drain/cancel seeded vs heap oracle" `Quick
      test_drain_cancel_seeded;
    Alcotest.test_case "skip: level-1/2/3 bucket starts" `Quick
      test_skip_bucket_starts;
    Alcotest.test_case "skip: level-1 word edges" `Quick test_skip_word_edges;
    Alcotest.test_case "skip: window edges" `Quick test_skip_window_edges;
    Alcotest.test_case "skip: cancel in jumped-over buckets" `Quick
      test_skip_cancel_jumped;
    Alcotest.test_case "skip: Pop_until inside skipped gap" `Quick
      test_skip_pop_until_gap;
    Alcotest.test_case "lowest set bit at all 32 positions" `Quick
      test_lowest_set_bit;
    Alcotest.test_case "near heap: the open slot's edges" `Quick
      test_near_window;
    Alcotest.test_case "periodic identical" `Quick test_engine_periodic_identical;
    Alcotest.test_case "timer: near-heap re-arm in one instant" `Quick
      test_timer_near_rearm;
    Alcotest.test_case "timer: far-heap disarm" `Quick test_timer_far_disarm;
    Alcotest.test_case "cancel mid-heap: sift up and down" `Quick
      test_cancel_mid_heap;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    Alcotest.test_case "fig1a identical across backends" `Slow
      test_fig1a_identical_across_backends;
  ]
