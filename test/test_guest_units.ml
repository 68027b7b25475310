(* Unit tests for guest primitives: programs, spinlocks, semaphores,
   barriers and the guest thread scheduler. *)

open Sim_guest

let rng () = Sim_engine.Rng.create 1L

(* ----- Program ----- *)

(* The stream as (opcode, operand) pairs. *)
let drain cursor =
  let r = rng () in
  let rec go acc =
    match Program.next cursor ~rng:r with
    | Program.I_end -> List.rev acc
    | i -> go ((i, Program.operand cursor) :: acc)
  in
  go []

let test_program_flattening () =
  let p =
    Program.make
      [
        Program.Compute 10;
        Program.Repeat (2, [ Program.Lock 0; Program.Unlock 0 ]);
        Program.Mark;
      ]
  in
  let instrs = drain (Program.cursor p) in
  Alcotest.(check int) "count" 6 (List.length instrs);
  Alcotest.(check int) "static count" 6 (Program.static_instr_count p);
  match instrs with
  | [ (Program.I_compute, 10); (Program.I_lock, 0); (Program.I_unlock, 0);
      (Program.I_lock, 0); (Program.I_unlock, 0); (Program.I_mark, 0) ] ->
    ()
  | _ -> Alcotest.fail "unexpected instruction stream"

let test_program_nested_repeat () =
  let p =
    Program.make
      [ Program.Repeat (3, [ Program.Repeat (2, [ Program.Compute 1 ]) ]) ]
  in
  Alcotest.(check int) "6 computes" 6 (List.length (drain (Program.cursor p)))

let test_program_empty_repeat () =
  let p = Program.make [ Program.Repeat (0, [ Program.Compute 1 ]); Program.Mark ] in
  Alcotest.(check int) "skips empty loop" 1 (List.length (drain (Program.cursor p)))

let test_program_reset () =
  let p = Program.make [ Program.Compute 5; Program.Compute 6 ] in
  let c = Program.cursor p in
  let r = rng () in
  ignore (Program.next c ~rng:r);
  Program.reset c;
  Alcotest.(check int) "full stream after reset" 2 (List.length (drain c))

let test_program_compute_rand () =
  let p = Program.make [ Program.Compute_rand { mean = 1000; cv = 0.1 } ] in
  let r = rng () in
  let c = Program.cursor p in
  match Program.next c ~rng:r with
  | Program.I_compute ->
    let n = Program.operand c in
    Alcotest.(check bool) "near mean" true (n > 500 && n < 2000)
  | _ -> Alcotest.fail "expected compute"

let test_program_totals () =
  let p =
    Program.make
      [
        Program.Compute 100;
        Program.Repeat (3, [ Program.Compute_rand { mean = 50; cv = 0.2 } ]);
      ]
  in
  Alcotest.(check int) "total compute (means)" 250 (Program.total_compute_cycles p)

let test_program_referenced () =
  let p =
    Program.make
      [
        Program.Lock 3; Program.Unlock 3;
        Program.Repeat (2, [ Program.Barrier 1; Program.Sem_wait 7 ]);
        Program.Sem_post 2;
      ]
  in
  Alcotest.(check (list int)) "locks" [ 3 ] (Program.locks_referenced p);
  Alcotest.(check (list int)) "barriers" [ 1 ] (Program.barriers_referenced p);
  Alcotest.(check (list int)) "sems" [ 2; 7 ] (Program.semaphores_referenced p)

let test_program_validation () =
  let invalid ops =
    try ignore (Program.make ops); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative compute" true (invalid [ Program.Compute (-1) ]);
  Alcotest.(check bool) "negative repeat" true
    (invalid [ Program.Repeat (-1, []) ]);
  Alcotest.(check bool) "zero mean" true
    (invalid [ Program.Compute_rand { mean = 0; cv = 0.1 } ])

let prop_static_count_matches_stream =
  QCheck.Test.make ~name:"static_instr_count = executed instructions"
    QCheck.(pair (int_range 0 5) (int_range 0 5))
    (fun (reps, body) ->
      let ops =
        [ Program.Repeat (reps, List.init body (fun _ -> Program.Compute 1)) ]
      in
      let p = Program.make ops in
      Program.static_instr_count p = List.length (drain (Program.cursor p)))

(* ----- The compiled cursor against a list-walking reference -----

   [Reference] is the interpreter [Program] used before programs were
   compiled: a stack of frames over the op lists, drawing each
   [Compute_rand] chunk with the log-normal formula evaluated per draw. The compiled cursor
   must emit the same (instr, operand) stream and draw the same RNG
   values, resets included. *)
module Reference = struct
  type frame = {
    mutable rest : Program.op list;
    body : Program.op list;
    mutable iters_left : int;
  }

  type t = { ops : Program.op list; mutable stack : frame list }

  let top ops = [ { rest = ops; body = []; iters_left = 0 } ]
  let cursor p = { ops = Program.ops p; stack = top (Program.ops p) }
  let reset c = c.stack <- top c.ops

  let rec next c ~rng =
    match c.stack with
    | [] -> (Program.I_end, 0)
    | frame :: parents -> begin
      match frame.rest with
      | [] ->
        if frame.iters_left > 0 then begin
          frame.iters_left <- frame.iters_left - 1;
          frame.rest <- frame.body
        end
        else c.stack <- parents;
        next c ~rng
      | op :: rest -> begin
        frame.rest <- rest;
        match op with
        | Program.Compute n -> (Program.I_compute, n)
        | Program.Compute_rand { mean; cv } ->
          let n =
            let mean = float_of_int mean in
            if cv <= 0. then mean
            else begin
              let sigma2 = log (1. +. (cv *. cv)) in
              let mu = log mean -. (sigma2 /. 2.) in
              exp (Sim_engine.Rng.gaussian rng ~mu ~sigma:(sqrt sigma2))
            end
          in
          (Program.I_compute, Int.max 1 (int_of_float n))
        | Program.Lock id -> (Program.I_lock, id)
        | Program.Unlock id -> (Program.I_unlock, id)
        | Program.Sem_wait id -> (Program.I_sem_wait, id)
        | Program.Sem_post id -> (Program.I_sem_post, id)
        | Program.Barrier id -> (Program.I_barrier, id)
        | Program.Mark -> (Program.I_mark, 0)
        | Program.Sleep n -> (Program.I_sleep, n)
        | Program.Repeat (n, body) ->
          if n > 0 && body <> [] then
            c.stack <- { rest = body; body; iters_left = n - 1 } :: c.stack;
          next c ~rng
      end
    end
end

(* Both cursors from the same seed: [steps] instructions, a reset, then
   the whole stream; the streams and the RNG state after them must be
   equal. *)
let streams ?(steps = 0) ops =
  let p = Program.make ops in
  let run next reset =
    let rng = Sim_engine.Rng.create 11L in
    let rec go acc k =
      match next rng with
      | (Program.I_end, _) as i -> List.rev (i :: acc)
      | i ->
        if k = steps then begin
          reset ();
          go ((Program.I_end, -1) :: i :: acc) (k + 1)
        end
        else go (i :: acc) (k + 1)
    in
    let stream = go [] 1 in
    (stream, Sim_engine.Rng.next_int64 rng)
  in
  let c = Program.cursor p in
  let compiled =
    run
      (fun rng ->
        let i = Program.next c ~rng in
        (i, Program.operand c))
      (fun () -> Program.reset c)
  in
  let r = Reference.cursor p in
  let reference = run (fun rng -> Reference.next r ~rng) (fun () -> Reference.reset r) in
  (compiled, reference)

let same_stream ?steps ops =
  let compiled, reference = streams ?steps ops in
  compiled = reference

let op_gen =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [
                 (3, map (fun n -> Program.Compute n) (int_range 0 50));
                 ( 2,
                   map2
                     (fun mean cv -> Program.Compute_rand { mean; cv })
                     (int_range 1 1000) (float_range 0. 1.) );
                 (1, map (fun i -> Program.Lock i) (int_bound 3));
                 (1, map (fun i -> Program.Unlock i) (int_bound 3));
                 (1, map (fun i -> Program.Sem_wait i) (int_bound 3));
                 (1, map (fun i -> Program.Sem_post i) (int_bound 3));
                 (1, map (fun i -> Program.Barrier i) (int_bound 3));
                 (1, return Program.Mark);
                 (1, map (fun n -> Program.Sleep n) (int_range 1 50));
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (4, leaf);
                 ( 1,
                   map2
                     (fun n body -> Program.Repeat (n, body))
                     (int_range 0 3)
                     (list_size (int_range 0 4) (self (depth - 1))) );
               ]))

let prop_cursor_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"compiled cursor = list-walking reference (stream and RNG)"
    QCheck.(
      make
        ~print:(fun (ops, steps) ->
          Printf.sprintf "%d ops, reset after %d" (List.length ops) steps)
        Gen.(pair (list_size (int_range 0 6) op_gen) (int_range 0 40)))
    (fun (ops, steps) -> same_stream ~steps ops)

let test_cursor_edge_loops () =
  let c1 = Program.Compute 1 and m = Program.Mark in
  let check name ?steps ops expected =
    let (stream, _), _ = streams ?steps ops in
    Alcotest.(check bool) (name ^ ": matches the reference") true
      (same_stream ?steps ops);
    Alcotest.(check int) (name ^ ": instructions") expected
      (List.length (List.filter (fun (i, _) -> i <> Program.I_end) stream))
  in
  check "Repeat (0, _)" [ m; Program.Repeat (0, [ c1; m ]); m ] 2;
  check "Repeat (n, [])" [ m; Program.Repeat (4, []); m ] 2;
  check "Repeat (n, [Repeat (0, _)])"
    [ m; Program.Repeat (5, [ Program.Repeat (0, [ c1 ]) ]); m ]
    2;
  check "nested empty loops inside a live one"
    [ Program.Repeat (3, [ Program.Repeat (2, []); c1 ]) ]
    3;
  (* reset inside the inner loop's second pass (after c1 c1 c1 m c1),
     then a full stream: 5 + 12 instructions *)
  check "reset in the middle of a loop" ~steps:5
    [ Program.Repeat (3, [ Program.Repeat (3, [ c1 ]); m ]) ]
    17

(* ----- Thread helpers ----- *)

let mk_thread ?(affinity = 0) id =
  Thread.make ~id ~affinity ~restart:false ~rng:(rng ())
    (Program.make [ Program.Compute 1 ])

(* ----- Spinlock ----- *)

let test_spinlock_fast_path () =
  let l = Spinlock.create ~id:0 in
  let t1 = mk_thread 1 in
  Alcotest.(check bool) "acquire" true (Spinlock.try_acquire l t1 ~now:0);
  Alcotest.(check bool) "held" true
    (match Spinlock.owner l with Some o -> o == t1 | None -> false);
  Alcotest.(check bool) "second fails" false
    (Spinlock.try_acquire l (mk_thread 2) ~now:0);
  Spinlock.release l t1;
  Alcotest.(check bool) "free again" true
    (Spinlock.try_acquire l (mk_thread 3) ~now:0);
  Alcotest.(check int) "acquisitions" 2 (Spinlock.acquisitions l)

let test_spinlock_release_validation () =
  let l = Spinlock.create ~id:0 in
  let t1 = mk_thread 1 and t2 = mk_thread 2 in
  ignore (Spinlock.try_acquire l t1 ~now:0);
  let raised = try Spinlock.release l t2; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-owner release" true raised

let test_spinlock_handoff () =
  let l = Spinlock.create ~id:0 in
  let holder = mk_thread 1 and w1 = mk_thread 2 and w2 = mk_thread 3 in
  ignore (Spinlock.try_acquire l holder ~now:0);
  Spinlock.enqueue_waiter l w1 ~now:10;
  Spinlock.enqueue_waiter l w2 ~now:20;
  Alcotest.(check int) "two waiters" 2 (Spinlock.waiter_count l);
  Alcotest.(check bool) "held: no grant" true
    (Spinlock.pick_online_waiter l ~online:(fun _ -> true) = None);
  Spinlock.release l holder;
  (* Earliest online waiter wins. *)
  (match Spinlock.pick_online_waiter l ~online:(fun t -> t == w2) with
  | Some t when t == w2 -> ()
  | _ -> Alcotest.fail "expected w2 (only online)");
  (match Spinlock.pick_online_waiter l ~online:(fun _ -> true) with
  | Some t when t == w1 -> ()
  | _ -> Alcotest.fail "expected w1 (earliest)");
  Spinlock.reserve_for l w1;
  Alcotest.(check bool) "reserved" true (Spinlock.is_reserved l);
  Alcotest.(check bool) "no pick while reserved" true
    (Spinlock.pick_online_waiter l ~online:(fun _ -> true) = None);
  let wait = Spinlock.complete_grant l w1 ~now:110 in
  Alcotest.(check int) "waited" 100 wait;
  Alcotest.(check int) "one waiter left" 1 (Spinlock.waiter_count l);
  Alcotest.(check int) "contended count" 1 (Spinlock.contended_acquisitions l)

let test_spinlock_abort_grant () =
  let l = Spinlock.create ~id:0 in
  let holder = mk_thread 1 and w = mk_thread 2 in
  ignore (Spinlock.try_acquire l holder ~now:0);
  Spinlock.enqueue_waiter l w ~now:5;
  Spinlock.release l holder;
  Spinlock.reserve_for l w;
  Spinlock.abort_grant l w;
  Alcotest.(check bool) "unreserved" false (Spinlock.is_reserved l);
  Alcotest.(check int) "still waiting" 1 (Spinlock.waiter_count l)

let test_spinlock_waiter_validation () =
  let l = Spinlock.create ~id:0 in
  let t = mk_thread 1 in
  ignore (Spinlock.try_acquire l t ~now:0);
  let raised =
    try Spinlock.enqueue_waiter l t ~now:1; false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "owner cannot wait" true raised

(* ----- Semaphore ----- *)

let test_semaphore_counting () =
  let s = Semaphore.create ~id:0 ~init:2 in
  Alcotest.(check bool) "wait 1" true (Semaphore.try_wait s);
  Alcotest.(check bool) "wait 2" true (Semaphore.try_wait s);
  Alcotest.(check bool) "wait 3 fails" false (Semaphore.try_wait s);
  Alcotest.(check bool) "post no waiter" true (Semaphore.post s = None);
  Alcotest.(check int) "count back to 1" 1 (Semaphore.count s)

let test_semaphore_fifo_handoff () =
  let s = Semaphore.create ~id:0 ~init:0 in
  let a = mk_thread 1 and b = mk_thread 2 in
  Semaphore.enqueue_waiter s a ~now:10;
  Semaphore.enqueue_waiter s b ~now:20;
  (match Semaphore.post s with
  | Some (t, 10) when t == a -> ()
  | _ -> Alcotest.fail "expected a first");
  (match Semaphore.post s with
  | Some (t, 20) when t == b -> ()
  | _ -> Alcotest.fail "expected b second");
  Alcotest.(check int) "count stays 0 on handoffs" 0 (Semaphore.count s);
  Alcotest.(check int) "blocked waits" 2 (Semaphore.blocked_waits s)

let test_semaphore_validation () =
  let raised =
    try ignore (Semaphore.create ~id:0 ~init:(-1)); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative init" true raised

(* ----- Barrier ----- *)

let test_barrier_episode () =
  let b = Barrier.create ~id:0 ~parties:3 in
  Alcotest.(check int) "gen 0" 0 (Barrier.generation b);
  (match Barrier.arrive b ~now:100 with
  | `Wait 0 -> ()
  | _ -> Alcotest.fail "first should wait");
  (match Barrier.arrive b ~now:150 with
  | `Wait 0 -> ()
  | _ -> Alcotest.fail "second should wait");
  (match Barrier.arrive b ~now:200 with
  | `Last -> ()
  | `Wait _ -> Alcotest.fail "third should close");
  Alcotest.(check int) "gen 1" 1 (Barrier.generation b);
  Alcotest.(check bool) "passed for gen 0" true (Barrier.passed b ~gen:0);
  Alcotest.(check bool) "not passed for gen 1" false (Barrier.passed b ~gen:1);
  Alcotest.(check int) "crossings" 1 (Barrier.crossings b);
  Alcotest.(check int) "longest episode" 100 (Barrier.longest_episode b)

let test_barrier_single_party () =
  let b = Barrier.create ~id:0 ~parties:1 in
  (match Barrier.arrive b ~now:5 with
  | `Last -> ()
  | `Wait _ -> Alcotest.fail "single party never waits");
  Alcotest.(check int) "gen" 1 (Barrier.generation b)

let test_barrier_reuse () =
  let b = Barrier.create ~id:0 ~parties:2 in
  for round = 1 to 5 do
    ignore (Barrier.arrive b ~now:(round * 100));
    match Barrier.arrive b ~now:((round * 100) + 1) with
    | `Last -> ()
    | `Wait _ -> Alcotest.fail "should close"
  done;
  Alcotest.(check int) "five crossings" 5 (Barrier.crossings b);
  Alcotest.(check int) "gen 5" 5 (Barrier.generation b)

(* ----- Gsched ----- *)

let executable_thread id =
  let t = mk_thread id in
  t.Thread.status <- Thread.Runnable;
  t

let test_gsched_round_robin () =
  let g = Gsched.create ~timeslice:1000 in
  let a = executable_thread 1
  and b = executable_thread 2
  and c = executable_thread 3 in
  List.iter (Gsched.add g) [ a; b; c ];
  Gsched.set_active g (Some a);
  (match Gsched.pick g with
  | Some t when t == b -> ()
  | _ -> Alcotest.fail "after a comes b");
  Gsched.set_active g (Some c);
  (match Gsched.pick g with
  | Some t when t == a -> ()
  | _ -> Alcotest.fail "wraps to a");
  b.Thread.status <- Thread.Blocked_sem 0;
  Gsched.set_active g (Some a);
  match Gsched.pick g with
  | Some t when t == c -> ()
  | _ -> Alcotest.fail "skips blocked b"

let test_gsched_no_executable () =
  let g = Gsched.create ~timeslice:1000 in
  let a = mk_thread 1 in
  a.Thread.status <- Thread.Finished;
  Gsched.add g a;
  Alcotest.(check bool) "none" true (Gsched.pick g = None);
  Alcotest.(check int) "executable count" 0 (Gsched.executable_count g)

let test_gsched_duplicate () =
  let g = Gsched.create ~timeslice:1000 in
  let a = executable_thread 1 in
  Gsched.add g a;
  let raised = try Gsched.add g a; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "duplicate add" true raised

let suite =
  [
    Alcotest.test_case "program flattening" `Quick test_program_flattening;
    Alcotest.test_case "nested repeat" `Quick test_program_nested_repeat;
    Alcotest.test_case "empty repeat" `Quick test_program_empty_repeat;
    Alcotest.test_case "cursor reset" `Quick test_program_reset;
    Alcotest.test_case "compute_rand" `Quick test_program_compute_rand;
    Alcotest.test_case "compute totals" `Quick test_program_totals;
    Alcotest.test_case "referenced ids" `Quick test_program_referenced;
    Alcotest.test_case "program validation" `Quick test_program_validation;
    QCheck_alcotest.to_alcotest prop_static_count_matches_stream;
    QCheck_alcotest.to_alcotest prop_cursor_matches_reference;
    Alcotest.test_case "cursor: empty and zero loops, mid-loop reset" `Quick
      test_cursor_edge_loops;
    Alcotest.test_case "spinlock fast path" `Quick test_spinlock_fast_path;
    Alcotest.test_case "spinlock release check" `Quick test_spinlock_release_validation;
    Alcotest.test_case "spinlock handoff" `Quick test_spinlock_handoff;
    Alcotest.test_case "spinlock abort" `Quick test_spinlock_abort_grant;
    Alcotest.test_case "spinlock waiter check" `Quick test_spinlock_waiter_validation;
    Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
    Alcotest.test_case "semaphore fifo" `Quick test_semaphore_fifo_handoff;
    Alcotest.test_case "semaphore validation" `Quick test_semaphore_validation;
    Alcotest.test_case "barrier episode" `Quick test_barrier_episode;
    Alcotest.test_case "barrier single party" `Quick test_barrier_single_party;
    Alcotest.test_case "barrier reuse" `Quick test_barrier_reuse;
    Alcotest.test_case "gsched round robin" `Quick test_gsched_round_robin;
    Alcotest.test_case "gsched empty" `Quick test_gsched_no_executable;
    Alcotest.test_case "gsched duplicate" `Quick test_gsched_duplicate;
  ]
