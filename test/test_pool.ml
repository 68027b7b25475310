(* The domain worker pool: order preservation, exception propagation,
   sequential/parallel equivalence, and the determinism argument for
   the experiment fan-out — one representative figure must render a
   byte-identical report sequentially and with 4 workers. *)

open Asman

let square x = x * x

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let expect = List.map square xs in
  Alcotest.(check (list int)) "jobs=4" expect (Pool.map ~jobs:4 square xs);
  Alcotest.(check (list int)) "jobs=1" expect (Pool.map ~jobs:1 square xs);
  Alcotest.(check (list int))
    "more workers than jobs" expect
    (Pool.map ~jobs:13 square xs)

let test_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 square []);
  Alcotest.(check (list int)) "singleton" [ 49 ] (Pool.map ~jobs:4 square [ 7 ]);
  Alcotest.(check (list int))
    "jobs clamped to 1" [ 1; 4 ]
    (Pool.map ~jobs:0 square [ 1; 2 ])

let test_exception_propagates () =
  Alcotest.check_raises "failure resurfaces" (Failure "job 37 boom") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 37 then failwith "job 37 boom" else x)
           (List.init 64 Fun.id)))

(* The first failure aborts the queue: unstarted jobs are dropped. In
   the sequential path the cut is exact (nothing after the failing
   index runs); in the parallel path only in-flight jobs may finish,
   so with the failure first not all 256 can have started. *)
let test_abort_on_first_error () =
  let ran = Atomic.make 0 in
  let job fail_at x =
    Atomic.incr ran;
    if x = fail_at then failwith "abort";
    x
  in
  Atomic.set ran 0;
  (try ignore (Pool.map ~jobs:1 (job 3) (List.init 64 Fun.id))
   with Failure _ -> ());
  Alcotest.(check int) "sequential stops at the failure" 4 (Atomic.get ran);
  Atomic.set ran 0;
  (try
     ignore
       (Pool.map ~jobs:4
          (fun x ->
            let y = job 0 x in
            Unix.sleepf 0.001;
            y)
          (List.init 256 Fun.id))
   with Failure _ -> ());
  Alcotest.(check bool) "parallel drains the queue" true (Atomic.get ran < 256)

let test_job_timeout () =
  let xs = [ 0; 1; 2 ] in
  let f x =
    if x = 1 then Unix.sleepf 0.05;
    x * 10
  in
  Alcotest.(check (list int))
    "generous limit passes" [ 0; 10; 20 ]
    (Pool.map ~jobs:2 ~timeout_sec:30. f xs);
  match Pool.map ~jobs:2 ~timeout_sec:0.01 f xs with
  | _ -> Alcotest.fail "timeout not raised"
  | exception Pool.Job_timeout { index; elapsed_sec; limit_sec } ->
    Alcotest.(check int) "offending index" 1 index;
    Alcotest.(check bool) "elapsed over limit" true (elapsed_sec > limit_sec)

let test_seq_par_equivalence () =
  let f x = (x * 7919) mod 997 in
  let xs = List.init 257 Fun.id in
  Alcotest.(check (list int))
    "j1 = j4"
    (Pool.map ~jobs:1 f xs)
    (Pool.map ~jobs:4 f xs)

let test_jobs_knob () =
  Alcotest.(check bool) "default positive" true (Pool.default_jobs () >= 1);
  let saved = Pool.jobs () in
  Pool.set_jobs 3;
  Alcotest.(check int) "set_jobs" 3 (Pool.jobs ());
  Pool.set_jobs (-5);
  Alcotest.(check int) "clamped" 1 (Pool.jobs ());
  Pool.set_jobs saved

let test_accounting () =
  Pool.reset_accounting ();
  ignore (Pool.map ~jobs:2 square [ 1; 2; 3 ]);
  let s = Pool.accounting () in
  Alcotest.(check int) "three timings" 3 (List.length s.Pool.timings);
  Alcotest.(check int) "workers recorded" 2 s.Pool.jobs_used;
  Alcotest.(check bool) "busy non-negative" true (s.Pool.busy_sec >= 0.);
  Alcotest.(check (list int))
    "every job accounted" [ 0; 1; 2 ]
    (List.sort compare
       (List.map (fun (t : Pool.job_timing) -> t.Pool.index) s.Pool.timings))

(* Results alone would pass if a job ran twice: count each index's
   runs, and check the accounting lists exactly [n] timings. *)
let test_each_job_once () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.reset_accounting ();
          let ids = List.init n Fun.id in
          let out =
            Pool.map ~jobs
              (fun i ->
                Atomic.incr hits.(i);
                i)
              ids
          in
          let what = Printf.sprintf "jobs=%d n=%d" jobs n in
          Alcotest.(check (list int)) (what ^ " results") ids out;
          Array.iteri
            (fun i h ->
              Alcotest.(check int)
                (Printf.sprintf "%s job %d runs" what i)
                1 (Atomic.get h))
            hits;
          Alcotest.(check int)
            (what ^ " timings") n
            (List.length (Pool.accounting ()).Pool.timings))
        [ 1; 3; 4; 40 ])
    [ 1; 2; 4; 13 ]

(* Determinism of the experiment fan-out: per-job engines built from a
   fixed seed mean fig1a's full rendered report is byte-identical no
   matter how many worker domains run it. *)
let tiny = Config.with_scale (Config.with_seed Config.default 5L) 0.02

let render_fig1a () =
  match Experiments.find "fig1a" with
  | Some e -> Report.outcome e (e.Experiments.run tiny)
  | None -> Alcotest.fail "fig1a missing"

let test_fig1a_deterministic () =
  let saved = Pool.jobs () in
  Pool.set_jobs 1;
  let sequential = render_fig1a () in
  Pool.set_jobs 4;
  let parallel = render_fig1a () in
  Pool.set_jobs saved;
  Alcotest.(check string) "byte-identical report" sequential parallel

let suite =
  [
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "abort on first error" `Quick test_abort_on_first_error;
    Alcotest.test_case "job timeout" `Quick test_job_timeout;
    Alcotest.test_case "seq/par equivalence" `Quick test_seq_par_equivalence;
    Alcotest.test_case "jobs knob" `Quick test_jobs_knob;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "each job runs once" `Quick test_each_job_once;
    Alcotest.test_case "fig1a deterministic across workers" `Slow
      test_fig1a_deterministic;
  ]
