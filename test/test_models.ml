(* Model-checking property tests: drive the synchronization primitives
   with random operation sequences against simple reference models, and
   exercise the report layer. *)

open Sim_guest

let mk_thread id =
  Thread.make ~id ~affinity:0 ~restart:false ~rng:(Sim_engine.Rng.create 1L)
    (Program.make [ Program.Compute 1 ])

(* ----- spinlock vs a reference model -----

   Random sequences of {try_acquire, enqueue, release, grant, abort}
   must keep the lock's view consistent with a trivial model: at most
   one owner; a waiter never owns; grants only to queued waiters. *)

let prop_spinlock_model =
  QCheck.Test.make ~count:200 ~name:"spinlock random-op model"
    QCheck.(pair int64 (list (int_range 0 4)))
    (fun (seed, ops) ->
      let rng = Sim_engine.Rng.create seed in
      let lock = Spinlock.create ~id:0 in
      let threads = Array.init 4 mk_thread in
      let owner = ref None and waiting = ref [] in
      let now = ref 0 in
      let ok = ref true in
      let check_consistent () =
        (match (Spinlock.owner lock, !owner) with
        | Some a, Some b when a == b -> ()
        | None, None -> ()
        | _ -> ok := false);
        if Spinlock.waiter_count lock <> List.length !waiting then ok := false
      in
      List.iter
        (fun op ->
          incr now;
          let th = threads.(Sim_engine.Rng.int rng 4) in
          match op with
          | 0 ->
            (* try_acquire: must succeed iff free and unreserved *)
            let free = !owner = None && not (Spinlock.is_reserved lock) in
            let got = Spinlock.try_acquire lock th ~now:!now in
            if got <> free then ok := false;
            if got then owner := Some th
          | 1 ->
            (* enqueue if legal *)
            let is_owner = match !owner with Some o -> o == th | None -> false in
            let waits = List.exists (fun w -> w == th) !waiting in
            if (not is_owner) && not waits then begin
              Spinlock.enqueue_waiter lock th ~now:!now;
              waiting := !waiting @ [ th ]
            end
          | 2 -> (
            (* release if owner *)
            match !owner with
            | Some o when o == th ->
              Spinlock.release lock th;
              owner := None
            | Some _ | None -> ())
          | 3 -> (
            (* reserve+grant the earliest waiter if possible *)
            match Spinlock.pick_online_waiter lock ~online:(fun _ -> true) with
            | Some w ->
              Spinlock.reserve_for lock w;
              ignore (Spinlock.complete_grant lock w ~now:!now);
              owner := Some w;
              waiting := List.filter (fun x -> x != w) !waiting
            | None -> ())
          | _ -> (
            (* reserve+abort: state must be unchanged *)
            match Spinlock.pick_online_waiter lock ~online:(fun _ -> true) with
            | Some w ->
              Spinlock.reserve_for lock w;
              Spinlock.abort_grant lock w
            | None -> ());
          check_consistent ())
        ops;
      !ok)

(* ----- barrier under random arrival orders ----- *)

let prop_barrier_random_arrivals =
  QCheck.Test.make ~count:100 ~name:"barrier crossings under random arrivals"
    QCheck.(pair (int_range 1 6) (int_range 1 20))
    (fun (parties, rounds) ->
      let b = Barrier.create ~id:0 ~parties in
      let lasts = ref 0 in
      for round = 1 to rounds do
        for arrival = 1 to parties do
          match Barrier.arrive b ~now:((round * 100) + arrival) with
          | `Last ->
            incr lasts;
            if arrival <> parties then raise Exit
          | `Wait gen -> if gen <> round - 1 then raise Exit
        done
      done;
      !lasts = rounds
      && Barrier.crossings b = rounds
      && Barrier.generation b = rounds)

(* ----- semaphore conservation ----- *)

let prop_semaphore_conservation =
  QCheck.Test.make ~count:200 ~name:"semaphore tokens are conserved"
    QCheck.(pair (int_range 0 5) (list bool))
    (fun (init, ops) ->
      let s = Semaphore.create ~id:0 ~init in
      let next_id = ref 0 in
      let outstanding = ref 0 (* waits granted *) and posts = ref 0 in
      List.iter
        (fun is_post ->
          if is_post then begin
            incr posts;
            match Semaphore.post s with
            | Some _ -> incr outstanding
            | None -> ()
          end
          else if Semaphore.try_wait s then incr outstanding
          else begin
            incr next_id;
            Semaphore.enqueue_waiter s (mk_thread !next_id) ~now:!next_id
          end)
        ops;
      (* tokens in = init + posts; tokens out = grants + current count;
         queued waiters hold no token. *)
      init + !posts = !outstanding + Semaphore.count s)

(* ----- estimator coverage on synthetic localities ----- *)

let test_estimator_covers_persistent_locality () =
  (* A workload that triggers right after every window closes must end
     up with near-continuous coverage (the under-coscheduling rule). *)
  let freq = Sim_engine.Units.ghz_f 2.33 in
  let slot = Sim_engine.Units.cycles_of_ms freq 10 in
  let est =
    Sim_learn.Estimator.create
      (Sim_learn.Estimator.default_params ~slot_cycles:slot)
      (Sim_engine.Rng.create 9L)
  in
  let time = ref 0 in
  let windows = ref [] in
  for _ = 1 to 80 do
    let x = Sim_learn.Estimator.on_adjusting_event est ~now:!time in
    windows := (!time, x) :: !windows;
    time := !time + x + (slot / 10)
  done;
  (* Total gap time between windows is the slot/10 slack per event. *)
  let total = !time in
  let covered =
    List.fold_left (fun acc (_, x) -> acc + x) 0 !windows
  in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f" (float_of_int covered /. float_of_int total))
    true
    (float_of_int covered /. float_of_int total > 0.85)

(* ----- report layer ----- *)

let test_trace_csv () =
  let entries =
    [
      { Sim_guest.Monitor.time = 100; wait = 2048; lock_id = 3 };
      { Sim_guest.Monitor.time = 200; wait = 0; lock_id = -1001 };
    ]
  in
  let csv = Asman.Report.trace_csv entries in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows" 3 (List.length lines);
  Alcotest.(check string) "header" "time_cycles,wait_cycles,log2_wait,lock_id"
    (List.hd lines);
  Alcotest.(check string) "row" "100,2048,11,3" (List.nth lines 1);
  Alcotest.(check string) "zero wait row" "200,0,0,-1001" (List.nth lines 2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_spinlock_model;
    QCheck_alcotest.to_alcotest prop_barrier_random_arrivals;
    QCheck_alcotest.to_alcotest prop_semaphore_conservation;
    Alcotest.test_case "estimator coverage" `Quick
      test_estimator_covers_persistent_locality;
    Alcotest.test_case "trace csv" `Quick test_trace_csv;
  ]
