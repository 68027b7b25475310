(* The domain worker pool: order preservation, exception propagation,
   sequential/parallel equivalence, and the determinism argument for
   the experiment fan-out — the whole catalogue must render a
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

(* The experiment catalogue pinned: every figure (fig10 aside, which
   CI diffs instead) and every ablation at seed 5, scale 0.02 must
   render the same report at 1 and 4 workers, submit the same number
   of Pool jobs, and hash to the digest pinned below. The digest
   covers the report and every series point printed with %h, so a
   change below the table's 2 decimals shows too. *)
let tiny = Config.with_scale (Config.with_seed Config.default 5L) 0.02

let pinned =
  [
    ("fig1a", 4, "ef63e28db7af19ddf72ce1f1a16182e6");
    ("fig1b", 4, "08dfb8354567fc52644c5a750cc15731");
    ("fig2", 4, "e9f94f327b8b1bf8dc7869cf1945ce37");
    ("fig7", 8, "0b20c5f966f6da423c6fb9b67bc95379");
    ("fig8", 4, "ec7850e7172c4d14492764e93388ae93");
    ("fig9", 49, "a33174aff1efd8dff9bb37eef4f02dd8");
    ("fig11a", 3, "f634c9c55f78f79de9305e5fcf18e55c");
    ("fig11b", 3, "b76072af929a86cd1ba699e7430a400b");
    ("fig12a", 3, "57b73d29acaefe01851c3fd4c624764d");
    ("fig12b", 3, "d96b6b88e80687dc9863fa54024a8801");
    ("theft", 12, "736ea806fbc098e89693d8d9e939eeab");
    ("resilience", 10, "faba6cb6693335a66d35eb96b559a8f2");
    ("ablate-gang", 6, "9d9b4989e85a778336f3b51b22d43d18");
    ("ablate-stagger", 5, "0dc99958baeb766c582ccc75e66df0ea");
    ("ablate-grace", 15, "16e3ca6e007de5ae9f1faba221f17eb7");
    ("ablate-learning", 5, "70a639bdfc68a1da3a048aa22cee758f");
    ("ablate-threshold", 6, "7837d7f7d67c433197cdd68c719cfd6b");
    ("ablate-slice", 6, "f1f8837b5758874862d46aa4fbd69887");
    ("ablate-llc", 2, "5e21bf4082c4510842c8f2f54a1ee31b");
    ("ablate-oov", 12, "fc658ccc7e572f042923f731a84444d8");
  ]

(* A config value equal to [tiny] but not [tiny] itself: single-VM
   points are shared per value (Experiments.nas_points), so each run
   that must simulate them gets its own. *)
let fresh () = { tiny with Config.seed = tiny.Config.seed }

(* On its own value, so the pass at 4 workers simulates every point
   again instead of reading the pass at 1 worker. *)
let fingerprint (e : Experiments.t) =
  Pool.reset_accounting ();
  let o = e.Experiments.run (fresh ()) in
  let jobs = List.length (Pool.accounting ()).Pool.timings in
  let text = Report.outcome e o in
  let points =
    List.concat_map
      (fun s ->
        List.map
          (fun (x, y) -> Printf.sprintf "%h %h" x y)
          (Sim_stats.Series.points s))
      (o.Experiments.series @ o.Experiments.expected)
  in
  let digest = Digest.string (String.concat "\n" (text :: points)) in
  (text, jobs, Digest.to_hex digest)

let test_catalogue_pinned () =
  let entries =
    List.filter (fun (e : Experiments.t) -> e.Experiments.id <> "fig10")
      Experiments.all
    @ Ablations.all
  in
  Alcotest.(check (list string))
    "pinned ids"
    (List.map (fun (id, _, _) -> id) pinned)
    (List.map (fun (e : Experiments.t) -> e.Experiments.id) entries);
  let saved = Pool.jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  List.iter2
    (fun (e : Experiments.t) (id, jobs, digest) ->
      Pool.set_jobs 1;
      let text1, jobs1, digest1 = fingerprint e in
      Pool.set_jobs 4;
      let text4, jobs4, digest4 = fingerprint e in
      Alcotest.(check string) (id ^ ": same report at 4 workers") text1 text4;
      Alcotest.(check (list int))
        (id ^ ": Pool jobs") [ jobs; jobs ] [ jobs1; jobs4 ];
      Alcotest.(check (list string))
        (id ^ ": digest") [ digest; digest ] [ digest1; digest4 ])
    entries pinned

(* Single-VM points are shared per config value, keyed by identity:
   after fig1a and fig7 on one value, fig1b, fig2 and fig8 run no job
   and the ablations only their own variants, each rendering what a
   fresh value renders; a fresh, structurally equal value runs its
   points again, so a benchmark building a new config per rep never
   reads an earlier rep's results. *)
let test_points_shared () =
  let run config id =
    let e =
      List.find
        (fun (e : Experiments.t) -> e.Experiments.id = id)
        (Experiments.all @ Ablations.all)
    in
    Pool.reset_accounting ();
    let text = Report.outcome e (e.Experiments.run config) in
    (text, List.length (Pool.accounting ()).Pool.timings)
  in
  let shared = fresh () in
  let expected =
    [ ("fig1a", 4); ("fig7", 4); ("fig1b", 0); ("fig2", 0); ("fig8", 0);
      ("ablate-gang", 3); ("ablate-stagger", 2); ("ablate-oov", 4) ]
  in
  let texts =
    List.map
      (fun (id, jobs) ->
        let text, n = run shared id in
        Alcotest.(check int) (id ^ ": Pool jobs on the shared value") jobs n;
        text)
      expected
  in
  Alcotest.(check int)
    "fig1b on a structurally equal value" 4
    (snd (run (fresh ()) "fig1b"));
  List.iter2
    (fun (id, _) text ->
      Alcotest.(check string)
        (id ^ ": same report as on a fresh value")
        (fst (run (fresh ()) id)) text)
    expected texts

(* A speedup is job time over wall time: an entry that ran no job
   (its points shared with an earlier figure) has none, not 0x. *)
let test_speedup_absent_without_jobs () =
  Pool.reset_accounting ();
  Alcotest.(check (option (float 0.)))
    "no job ran" None
    (Pool.speedup (Pool.accounting ()) ~wall_sec:0.25);
  ignore (Pool.map ~jobs:2 square [ 1; 2; 3 ]);
  let s = Pool.accounting () in
  Alcotest.(check (option (float 1e-12)))
    "busy over wall" (Some (s.Pool.busy_sec /. 0.5))
    (Pool.speedup s ~wall_sec:0.5);
  Alcotest.(check (option (float 0.)))
    "no wall elapsed reads 1x" (Some 1.)
    (Pool.speedup s ~wall_sec:0.);
  let config = fresh () in
  let speedup_of id =
    let e =
      List.find (fun (e : Experiments.t) -> e.Experiments.id = id) Experiments.all
    in
    Pool.reset_accounting ();
    ignore (e.Experiments.run config);
    Pool.speedup (Pool.accounting ()) ~wall_sec:1.
  in
  Alcotest.(check bool) "fig1a runs its points" true (speedup_of "fig1a" <> None);
  Alcotest.(check (option (float 0.)))
    "fig1b after fig1a on one value" None (speedup_of "fig1b")

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
    Alcotest.test_case "no speedup without jobs" `Quick
      test_speedup_absent_without_jobs;
    Alcotest.test_case "catalogue pinned across workers" `Slow
      test_catalogue_pinned;
    Alcotest.test_case "single-VM points shared per config value" `Slow
      test_points_shared;
  ]
