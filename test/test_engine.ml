(* Tests for the discrete-event engine. *)

open Sim_engine

let test_time_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check int) "now" 0 (Engine.now e)

let test_fires_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule_at e ~time:30 (record "c"));
  ignore (Engine.schedule_at e ~time:10 (record "a"));
  ignore (Engine.schedule_at e ~time:20 (record "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule_at e ~time:5 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_schedule_after () =
  let e = Engine.create () in
  let fired = ref (-1) in
  ignore
    (Engine.schedule_at e ~time:100 (fun () ->
         ignore
           (Engine.schedule_after e ~delay:50 (fun () -> fired := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "relative" 150 !fired

let test_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e ~time:10 (fun () -> ()));
  Engine.run e;
  (* now = 10; scheduling before now must fail *)
  let raised =
    try
      ignore (Engine.schedule_at e ~time:5 (fun () -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "past scheduling raises" true raised

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e ~time:10 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending e h);
  Engine.cancel e h;
  Alcotest.(check bool) "not pending" false (Engine.is_pending e h);
  Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired;
  (* double-cancel is a no-op *)
  Engine.cancel e h

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e ~time:(i * 10) (fun () -> incr count))
  done;
  Engine.run ~until:35 e;
  Alcotest.(check int) "fired 3 of 10" 3 !count;
  Alcotest.(check int) "clock parked at limit" 35 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_run_until_empty_advances_clock () =
  let e = Engine.create () in
  Engine.run ~until:1_000 e;
  Alcotest.(check int) "clock advanced" 1_000 (Engine.now e)

let test_halt () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at e ~time:i (fun () ->
           incr count;
           if !count = 4 then Engine.halt e))
  done;
  Engine.run e;
  Alcotest.(check int) "halted after 4" 4 !count;
  Alcotest.(check bool) "halted flag" true (Engine.halted e)

let test_events_fired () =
  let e = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule_at e ~time:i (fun () -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "count" 7 (Engine.events_fired e)

let test_pending_count () =
  let e = Engine.create () in
  let h1 = Engine.schedule_at e ~time:1 (fun () -> ()) in
  let _h2 = Engine.schedule_at e ~time:2 (fun () -> ()) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_count e);
  Engine.cancel e h1;
  Alcotest.(check int) "one pending" 1 (Engine.pending_count e)

let test_recursive_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then ignore (Engine.schedule_after e ~delay:1 tick)
  in
  ignore (Engine.schedule_at e ~time:0 tick);
  Engine.run e;
  Alcotest.(check int) "ticks" 100 !count;
  Alcotest.(check int) "time" 99 (Engine.now e)

let test_zero_delay_fires_after_queued () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e ~time:10 (fun () ->
         ignore (Engine.schedule_after e ~delay:0 (fun () -> log := "late" :: !log));
         log := "first" :: !log));
  ignore (Engine.schedule_at e ~time:10 (fun () -> log := "second" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "zero delay ordering"
    [ "first"; "second"; "late" ] (List.rev !log)

let prop_monotone_clock =
  QCheck.Test.make ~name:"clock is monotone over random schedules"
    QCheck.(list (int_range 0 10_000))
    (fun times ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun t ->
          ignore
            (Engine.schedule_at e ~time:t (fun () ->
                 if Engine.now e < !last then ok := false;
                 last := Engine.now e)))
        times;
      Engine.run e;
      !ok)

(* The engine's own share of an event is zero words: a closure built
   once, rescheduling itself through [schedule_after] and, every fourth
   fire, scheduling and cancelling a second event, allocates nothing per
   fire once the slab and the slot heaps have grown. The chain's delays
   walk the wheel's levels, and the cancelled events alternate between
   a removal from the near heap and a bucket unlink. The warm-up
   crosses a 2^34-cycle window, so the far heap has grown too. *)
let words_per_fire kind =
  let e = Engine.create ~queue:kind () in
  let fires = ref 0 in
  let last = ref 0 in
  let other () = () in
  let rec tick () =
    incr fires;
    let n = !fires in
    if n land 3 = 0 then
      Engine.cancel e
        (Engine.schedule_after e
           ~delay:(if n land 4 = 0 then 50 else 1 lsl 23)
           other);
    if n < !last then
      ignore (Engine.schedule_after e ~delay:(1 + ((n * 7919) land 0xFFFFF)) tick)
  in
  let chain n =
    last := !fires + n;
    ignore (Engine.schedule_after e ~delay:1 tick);
    let events = Engine.events_fired e in
    let before = Gc.minor_words () in
    Engine.run e;
    let words = Gc.minor_words () -. before in
    words /. float_of_int (Engine.events_fired e - events)
  in
  ignore (chain 50_000);
  chain 200_000

let test_fire_allocates_nothing () =
  List.iter
    (fun kind ->
      Alcotest.(check (float 0.))
        (Engine.kind_name kind ^ ": minor words per fired event")
        0. (words_per_fire kind))
    [ Engine.Wheel_queue; Engine.Heap_queue ]

(* The same chain driven by timers: one re-arms itself, and every
   fourth fire arms and disarms a second one, alternating between the
   near heap and a wheel bucket. Timers keep their slots, so this pins
   the arm/disarm/fire path at zero words too. *)
let timer_words_per_fire kind =
  let e = Engine.create ~queue:kind () in
  let fires = ref 0 in
  let last = ref 0 in
  let other = Engine.timer e (fun () -> ()) in
  let self = ref Engine.no_timer in
  let tick () =
    incr fires;
    let n = !fires in
    if n land 3 = 0 then begin
      Engine.arm e other ~delay:(if n land 4 = 0 then 50 else 1 lsl 23);
      Engine.disarm e other
    end;
    if n < !last then Engine.arm e !self ~delay:(1 + ((n * 7919) land 0xFFFFF))
  in
  self := Engine.timer e tick;
  let chain n =
    last := !fires + n;
    Engine.arm e !self ~delay:1;
    let events = Engine.events_fired e in
    let before = Gc.minor_words () in
    Engine.run e;
    let words = Gc.minor_words () -. before in
    words /. float_of_int (Engine.events_fired e - events)
  in
  ignore (chain 50_000);
  chain 200_000

let test_timer_fire_allocates_nothing () =
  List.iter
    (fun kind ->
      Alcotest.(check (float 0.))
        (Engine.kind_name kind ^ ": minor words per timer fire")
        0. (timer_words_per_fire kind))
    [ Engine.Wheel_queue; Engine.Heap_queue ]

(* A timer is idle after it fires, keeps its action, and can be
   disarmed and re-armed at any point, in the same instant too. *)
let test_timer_lifecycle () =
  let e = Engine.create () in
  let log = ref [] in
  let tm = Engine.timer e (fun () -> log := Engine.now e :: !log) in
  Alcotest.(check bool) "idle when bound" false (Engine.armed e tm);
  Engine.arm e tm ~delay:10;
  Alcotest.(check bool) "armed" true (Engine.armed e tm);
  Alcotest.(check int) "pending" 1 (Engine.pending_count e);
  Alcotest.check_raises "arming an armed timer"
    (Invalid_argument "Engine.arm: timer is not idle") (fun () ->
      Engine.arm e tm ~delay:5);
  Engine.disarm e tm;
  Engine.arm e tm ~delay:20;
  Engine.run e;
  Alcotest.(check (list int)) "fired once, at the re-armed time" [ 20 ] !log;
  Alcotest.(check bool) "idle after firing" false (Engine.armed e tm);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_count e);
  Engine.arm e tm ~delay:0;
  Engine.run e;
  Alcotest.(check (list int)) "the action stays bound" [ 20; 20 ] !log;
  Engine.arm e tm ~delay:7;
  Engine.free_timer e tm;
  Alcotest.(check int) "free disarms" 0 (Engine.pending_count e);
  Engine.run e;
  Alcotest.(check (list int)) "a freed timer never fires" [ 20; 20 ] !log;
  Alcotest.(check bool) "no_timer is never armed" false
    (Engine.armed e Engine.no_timer);
  Engine.disarm e Engine.no_timer

let suite =
  [
    Alcotest.test_case "zero start" `Quick test_time_starts_at_zero;
    Alcotest.test_case "order" `Quick test_fires_in_order;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "past raises" `Quick test_past_raises;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "run until empty" `Quick test_run_until_empty_advances_clock;
    Alcotest.test_case "halt" `Quick test_halt;
    Alcotest.test_case "events fired" `Quick test_events_fired;
    Alcotest.test_case "pending count" `Quick test_pending_count;
    Alcotest.test_case "recursive" `Quick test_recursive_scheduling;
    Alcotest.test_case "zero delay" `Quick test_zero_delay_fires_after_queued;
    QCheck_alcotest.to_alcotest prop_monotone_clock;
    Alcotest.test_case "fire allocates nothing" `Quick
      test_fire_allocates_nothing;
    Alcotest.test_case "timer fire allocates nothing" `Quick
      test_timer_fire_allocates_nothing;
    Alcotest.test_case "timer lifecycle" `Quick test_timer_lifecycle;
  ]
