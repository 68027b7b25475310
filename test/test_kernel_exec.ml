(* Execution-semantics tests for the guest kernel: preemption-exact
   compute resumption, guest timeslicing, spin-then-block transitions,
   hooks, and error paths. *)

open Asman

let config = Config.with_scale (Config.with_seed Config.default 41L) 0.05

let freq = Config.freq config

let us n = Sim_engine.Units.cycles_of_us freq n
let ms n = Sim_engine.Units.cycles_of_ms freq n

let build ?(sched = Config.Credit) ?(weight = 256) ?(vcpus = 4)
    ?(work_conserving = false) workload =
  Scenario.build
    (Config.with_work_conserving config work_conserving)
    ~sched
    ~vms:[ { Scenario.vm_name = "V"; weight; vcpus; workload = Some workload } ]

let kernel_of s =
  match (Scenario.find_vm s "V").Scenario.kernel with
  | Some k -> k
  | None -> Alcotest.fail "kernel missing"

(* Compute work survives preemption exactly: at a 40% cap a pure
   compute thread's total online time equals its program's demand. *)
let test_preemption_exact_compute () =
  let chunk = ms 7 in
  let workload =
    Sim_workloads.Synthetic.compute_only ~threads:1 ~chunks:20
      ~chunk_cycles:chunk ()
  in
  let s = build ~weight:64 ~vcpus:1 workload in
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:10. in
  let inst = Scenario.find_vm s "V" in
  let vcpu = inst.Scenario.domain.Sim_vmm.Domain.vcpus.(0) in
  let demand = 20 * chunk in
  let overhead_allowance = demand / 10 in
  Alcotest.(check bool)
    (Printf.sprintf "online %d ~ demand %d" vcpu.Sim_vmm.Vcpu.online_cycles demand)
    true
    (vcpu.Sim_vmm.Vcpu.online_cycles >= demand
    && vcpu.Sim_vmm.Vcpu.online_cycles < demand + overhead_allowance);
  Alcotest.(check int) "one round" 1 (Runner.vm_metrics m ~vm:"V").Runner.rounds

(* Two threads pinned to one VCPU must interleave via the guest
   timeslice and both finish. *)
let test_guest_timeslicing () =
  let program =
    Sim_guest.Program.make
      [ Sim_guest.Program.Repeat (10, [ Sim_guest.Program.Compute (ms 3) ]) ]
  in
  let workload =
    {
      Sim_workloads.Workload.name = "two-on-one";
      kind = Sim_workloads.Workload.Throughput;
      threads =
        [
          { Sim_workloads.Workload.affinity = 0; program; restart = false };
          { Sim_workloads.Workload.affinity = 0; program; restart = false };
        ];
      barriers = [];
      semaphores = [];
    }
  in
  let s = build ~vcpus:1 workload in
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:10. in
  let runtime = Runner.first_round_sec m ~vm:"V" in
  (* 2 threads x 30 ms of work on one VCPU: ~60 ms total, and the
     round (= both threads done) completes near it. *)
  Alcotest.(check bool)
    (Printf.sprintf "both ran to completion (%.3f s)" runtime)
    true
    (runtime > 0.055 && runtime < 0.085);
  let k = kernel_of s in
  Alcotest.(check bool) "all finished" true (Sim_guest.Kernel.all_finished k)

(* A barrier waiter transitions Spin_barrier -> Blocked_barrier after
   the grace budget and its VCPU halts (stops burning credit). *)
let test_spin_then_block_transition () =
  let grace = ms 2 in
  let gp = { (Config.guest_params config) with Sim_guest.Kernel.spin_grace = grace } in
  let config = { config with Config.guest_params = Some gp } in
  let program_fast =
    Sim_guest.Program.make [ Sim_guest.Program.Barrier 0 ]
  in
  let program_slow =
    Sim_guest.Program.make
      [ Sim_guest.Program.Compute (ms 20); Sim_guest.Program.Barrier 0 ]
  in
  let workload =
    {
      Sim_workloads.Workload.name = "spin-block";
      kind = Sim_workloads.Workload.Concurrent;
      threads =
        [
          { Sim_workloads.Workload.affinity = 0; program = program_fast; restart = false };
          { Sim_workloads.Workload.affinity = 1; program = program_slow; restart = false };
        ];
      barriers = [ (0, 2) ];
      semaphores = [];
    }
  in
  let s =
    Scenario.build config ~sched:Config.Credit
      ~vms:[ { Scenario.vm_name = "V"; weight = 256; vcpus = 2; workload = Some workload } ]
  in
  let engine = s.Scenario.engine in
  let inst = Scenario.find_vm s "V" in
  let fast_thread = List.hd inst.Scenario.threads in
  let observed_blocked = ref false in
  let rec watch () =
    (match fast_thread.Sim_guest.Thread.status with
    | Sim_guest.Thread.Blocked_barrier _ -> observed_blocked := true
    | _ -> ());
    ignore (Sim_engine.Engine.schedule_after engine ~delay:(ms 1) watch)
  in
  ignore (Sim_engine.Engine.schedule_after engine ~delay:0 watch);
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  Alcotest.(check bool) "blocked after grace" true !observed_blocked;
  Alcotest.(check int) "completed" 1 (Runner.vm_metrics m ~vm:"V").Runner.rounds;
  (* The fast waiter slept rather than spinning 20 ms: its online time
     is far below the slow thread's compute. *)
  let fast_vcpu = inst.Scenario.domain.Sim_vmm.Domain.vcpus.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "waiter slept (online %.1f ms)"
       (Sim_engine.Units.ms_of_cycles freq fast_vcpu.Sim_vmm.Vcpu.online_cycles))
    true
    (fast_vcpu.Sim_vmm.Vcpu.online_cycles < ms 6)

let test_round_and_finished_hooks () =
  let workload =
    Sim_workloads.Synthetic.compute_only ~threads:2 ~chunks:2 ~chunk_cycles:(us 500) ()
  in
  let s = build ~vcpus:2 workload in
  let k = kernel_of s in
  let rounds = ref 0 and finished = ref 0 in
  Sim_guest.Kernel.set_round_hook k (fun _ ~round:_ ~duration ->
      if duration <= 0 then Alcotest.fail "non-positive duration";
      incr rounds);
  Sim_guest.Kernel.set_finished_hook k (fun _ -> incr finished);
  (* Drive the engine directly: Runner installs its own round hook. *)
  Sim_engine.Engine.run
    ~until:(Sim_engine.Units.cycles_of_sec_f freq 2.)
    s.Scenario.engine;
  Alcotest.(check int) "round hook per thread" 2 !rounds;
  Alcotest.(check int) "finished hook per thread" 2 !finished

let test_marks_reset () =
  let workload =
    Sim_workloads.Synthetic.lock_storm ~threads:2 ~rounds:50 ~cs_cycles:(us 1)
      ~think_cycles:(us 10) ()
  in
  let s = build ~vcpus:2 workload in
  let k = kernel_of s in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  Alcotest.(check int) "marks counted" 100 (Sim_guest.Kernel.total_marks k);
  Sim_guest.Kernel.reset_marks k;
  Alcotest.(check int) "marks reset" 0 (Sim_guest.Kernel.total_marks k)

let test_undeclared_objects_rejected () =
  let s = build (Sim_workloads.Synthetic.compute_only ~threads:1 ~chunks:1 ~chunk_cycles:100 ()) in
  let k = kernel_of s in
  let raised p =
    try
      ignore (Sim_guest.Kernel.add_thread k ~affinity:0 p);
      false
    with
    | Invalid_argument _ | Failure _ -> true
  in
  Alcotest.(check bool) "undeclared barrier" true
    (raised (Sim_guest.Program.make [ Sim_guest.Program.Barrier 9 ]));
  Alcotest.(check bool) "undeclared semaphore" true
    (raised (Sim_guest.Program.make [ Sim_guest.Program.Sem_wait 9 ]))

let test_duplicate_objects_rejected () =
  let s = build (Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:1 ~compute_cycles:(us 100) ~cv:0. ()) in
  let k = kernel_of s in
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "duplicate barrier" true
    (raised (fun () -> Sim_guest.Kernel.add_barrier k ~id:0 ~parties:2));
  Sim_guest.Kernel.add_semaphore k ~id:5 ~init:1;
  Alcotest.(check bool) "duplicate semaphore" true
    (raised (fun () -> Sim_guest.Kernel.add_semaphore k ~id:5 ~init:1))

let test_lock_stats_listing () =
  let workload =
    Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:3
      ~compute_cycles:(us 200) ~cv:0.01 ()
  in
  let s = build ~vcpus:2 workload in
  let k = kernel_of s in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  (* The barrier's internal arrival lock shows up in lock_stats. *)
  let stats = Sim_guest.Kernel.lock_stats k in
  Alcotest.(check bool) "internal lock listed" true (stats <> []);
  let total =
    List.fold_left (fun acc (_, l) -> acc + Sim_guest.Spinlock.acquisitions l) 0 stats
  in
  (* 2 threads x 3 rounds of arrivals. *)
  Alcotest.(check int) "arrival acquisitions" 6 total

let test_total_spin_accounting () =
  let workload =
    Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:5
      ~compute_cycles:(ms 1) ~cv:0.3 ()
  in
  let s = build ~vcpus:2 workload in
  let k = kernel_of s in
  let _ = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  Alcotest.(check bool) "spin wall time accumulated" true
    (Sim_guest.Kernel.total_spin_cycles k > 0)

let test_semaphore_pipeline_order () =
  (* Producer posts N tokens; consumer must see them all: counts are
     conserved through the kernel path. *)
  let n = 20 in
  let producer =
    Sim_guest.Program.make
      [ Sim_guest.Program.Repeat
          (n, [ Sim_guest.Program.Compute (us 50); Sim_guest.Program.Sem_post 0 ]) ]
  in
  let consumer =
    Sim_guest.Program.make
      [ Sim_guest.Program.Repeat
          (n, [ Sim_guest.Program.Sem_wait 0; Sim_guest.Program.Mark ]) ]
  in
  let workload =
    {
      Sim_workloads.Workload.name = "pipeline";
      kind = Sim_workloads.Workload.Concurrent;
      threads =
        [
          { Sim_workloads.Workload.affinity = 0; program = producer; restart = false };
          { Sim_workloads.Workload.affinity = 1; program = consumer; restart = false };
        ];
      barriers = [];
      semaphores = [ (0, 0) ];
    }
  in
  let s = build ~vcpus:2 workload in
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  Alcotest.(check int) "completed" 1 (Runner.vm_metrics m ~vm:"V").Runner.rounds;
  Alcotest.(check int) "all tokens consumed" n
    (Sim_guest.Kernel.total_marks (kernel_of s))

let test_restart_rounds_progress () =
  let base =
    Sim_workloads.Synthetic.barrier_loop ~threads:2 ~rounds:2
      ~compute_cycles:(us 300) ~cv:0.01 ()
  in
  let workload =
    {
      base with
      Sim_workloads.Workload.threads =
        List.map
          (fun t -> { t with Sim_workloads.Workload.restart = true })
          base.Sim_workloads.Workload.threads;
    }
  in
  let s = build ~vcpus:2 workload in
  let _ = Runner.run_rounds s ~rounds:5 ~max_sec:5. in
  Alcotest.(check bool) "many rounds" true
    (Sim_guest.Kernel.min_rounds (kernel_of s) >= 5)

(* A kernel on a VMM that is never started, so nothing else runs on
   the engine: the test plays the scheduler, taking VCPUs online and
   offline through their hooks. *)
let hooks_env ~vcpus =
  let engine = Sim_engine.Engine.create ~seed:2L () in
  let machine =
    Sim_hw.Machine.create engine config.Config.cpu config.Config.topology
  in
  let vmm = Sim_vmm.Vmm.create machine ~sched:Sim_vmm.Sched_credit.make in
  let domain = Sim_vmm.Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus () in
  (engine, domain, Sim_guest.Kernel.create vmm domain ())

let dispatch engine (domain : Sim_vmm.Domain.t) i =
  let v = domain.Sim_vmm.Domain.vcpus.(i) in
  v.Sim_vmm.Vcpu.state <- Sim_vmm.Vcpu.Running i;
  v.Sim_vmm.Vcpu.last_dispatch <- Sim_engine.Engine.now engine;
  v.Sim_vmm.Vcpu.hooks.Sim_vmm.Vcpu.on_scheduled ()

let preempt (domain : Sim_vmm.Domain.t) i =
  let v = domain.Sim_vmm.Domain.vcpus.(i) in
  v.Sim_vmm.Vcpu.state <- Sim_vmm.Vcpu.Ready;
  v.Sim_vmm.Vcpu.hooks.Sim_vmm.Vcpu.on_preempted ()

(* A thread that spins on a barrier's arrival lock while its VCPU is
   preempted misses the release; when the VCPU comes back, the lock it
   resumes spinning on must be that barrier's own, which is then handed
   to it. *)
let test_barrier_arrival_lock_resumes () =
  let engine, domain, k = hooks_env ~vcpus:2 in
  let gp = Sim_guest.Kernel.params k in
  let ov = gp.Sim_guest.Kernel.instr_overhead in
  Sim_guest.Kernel.add_barrier k ~id:0 ~parties:3;
  let holder =
    Sim_guest.Kernel.add_thread k ~affinity:0
      (Sim_guest.Program.make [ Sim_guest.Program.Barrier 0 ])
  in
  let waiter =
    Sim_guest.Kernel.add_thread k ~affinity:1
      (Sim_guest.Program.make
         [ Sim_guest.Program.Compute (ov / 2); Sim_guest.Program.Barrier 0 ])
  in
  let at time f = ignore (Sim_engine.Engine.schedule_at engine ~time f) in
  (* [holder] owns the arrival lock over [ov, 2 ov); [waiter] requests it
     at 1.5 ov and is offline when it is released. *)
  dispatch engine domain 0;
  dispatch engine domain 1;
  at (ov + (ov / 2) + (ov / 4)) (fun () -> preempt domain 1);
  at (3 * ov) (fun () -> dispatch engine domain 1);
  Sim_engine.Engine.run
    ~until:((5 * ov) + gp.Sim_guest.Kernel.handoff)
    engine;
  let lock =
    match Sim_guest.Kernel.barrier_stats k with
    | [ (0, b) ] -> Sim_guest.Barrier.lock b
    | _ -> Alcotest.fail "expected barrier 0 alone"
  in
  Alcotest.(check int) "both arrivals took the arrival lock" 2
    (Sim_guest.Spinlock.acquisitions lock);
  Alcotest.(check int) "no waiter left" 0 (Sim_guest.Spinlock.waiter_count lock);
  List.iter
    (fun (name, (th : Sim_guest.Thread.t)) ->
      Alcotest.(check bool) (name ^ " spins on the flag") true
        (match th.Sim_guest.Thread.status with
        | Sim_guest.Thread.Spin_barrier (0, 0) -> true
        | _ -> false))
    [ ("holder", holder); ("waiter", waiter) ];
  let ids = List.map fst (Sim_guest.Kernel.lock_stats k) in
  Alcotest.(check (list int)) "each lock listed once" [ -1 ] ids

(* A sleeping thread's wake is a pooled entry in flight: the kernel is
   not quiescent, and parking refuses. Once the wake has fired, park
   frees the pool and leaves the engine as it found it. *)
let test_park_waits_for_pooled_entries () =
  let engine, domain, k = hooks_env ~vcpus:1 in
  let ov = (Sim_guest.Kernel.params k).Sim_guest.Kernel.instr_overhead in
  let nap = 50 * ov in
  let _ =
    Sim_guest.Kernel.add_thread k ~affinity:0
      (Sim_guest.Program.make [ Sim_guest.Program.Sleep nap ])
  in
  let before = Sim_engine.Engine.pending_count engine in
  dispatch engine domain 0;
  Sim_engine.Engine.run ~until:(2 * ov) engine;
  Alcotest.(check int) "one entry, the wake" 1
    (Sim_guest.Kernel.pooled_continuations k);
  Alcotest.(check bool) "not quiescent while it sleeps" false
    (Sim_guest.Kernel.quiescent k);
  Alcotest.check_raises "park refuses an armed entry"
    (Failure "Kernel.park: kernel not quiescent") (fun () ->
      Sim_guest.Kernel.park k);
  Sim_engine.Engine.run ~until:(nap + (10 * ov)) engine;
  Alcotest.(check bool) "woke and finished" true
    (Sim_guest.Kernel.all_finished k);
  Alcotest.(check bool) "quiescent once it fired" true
    (Sim_guest.Kernel.quiescent k);
  Sim_guest.Kernel.park k;
  Alcotest.(check int) "park empties the pool" 0
    (Sim_guest.Kernel.pooled_continuations k);
  Alcotest.(check int) "pending events as before" before
    (Sim_engine.Engine.pending_count engine)

(* Two threads on two VCPUs sleep and wake 200 times each: the pool
   grows to the two wakes in flight at once and no further. *)
let test_pool_holds_peak_in_flight () =
  let program =
    Sim_guest.Program.make
      [
        Sim_guest.Program.Repeat
          ( 200,
            [
              Sim_guest.Program.Compute (us 100);
              Sim_guest.Program.Sleep (us 300);
              Sim_guest.Program.Mark;
            ] );
      ]
  in
  let workload =
    {
      Sim_workloads.Workload.name = "sleepers";
      kind = Sim_workloads.Workload.Concurrent;
      threads =
        List.init 2 (fun affinity ->
            { Sim_workloads.Workload.affinity; program; restart = false });
      barriers = [];
      semaphores = [];
    }
  in
  let s = build ~vcpus:2 workload in
  let k = kernel_of s in
  let peak = ref 0 in
  let rec watch () =
    peak := Int.max !peak (Sim_guest.Kernel.pooled_continuations k);
    ignore (Sim_engine.Engine.schedule_after s.Scenario.engine ~delay:(us 50) watch)
  in
  watch ();
  let m = Runner.run_rounds s ~rounds:1 ~max_sec:5. in
  Alcotest.(check int) "completed" 1 (Runner.vm_metrics m ~vm:"V").Runner.rounds;
  Alcotest.(check int) "every wake fired" 400 (Sim_guest.Kernel.total_marks k);
  Alcotest.(check int) "pool at the peak in flight" 2
    (Sim_guest.Kernel.pooled_continuations k);
  Alcotest.(check int) "never larger" 2 !peak

let suite =
  [
    Alcotest.test_case "preemption-exact compute" `Quick test_preemption_exact_compute;
    Alcotest.test_case "guest timeslicing" `Quick test_guest_timeslicing;
    Alcotest.test_case "spin-then-block" `Quick test_spin_then_block_transition;
    Alcotest.test_case "round/finished hooks" `Quick test_round_and_finished_hooks;
    Alcotest.test_case "marks reset" `Quick test_marks_reset;
    Alcotest.test_case "undeclared objects" `Quick test_undeclared_objects_rejected;
    Alcotest.test_case "duplicate objects" `Quick test_duplicate_objects_rejected;
    Alcotest.test_case "lock stats" `Quick test_lock_stats_listing;
    Alcotest.test_case "spin accounting" `Quick test_total_spin_accounting;
    Alcotest.test_case "semaphore pipeline" `Quick test_semaphore_pipeline_order;
    Alcotest.test_case "restart rounds" `Quick test_restart_rounds_progress;
    Alcotest.test_case "barrier arrival lock resumes" `Quick
      test_barrier_arrival_lock_resumes;
    Alcotest.test_case "park waits for pooled entries" `Quick
      test_park_waits_for_pooled_entries;
    Alcotest.test_case "pool holds the peak in flight" `Quick
      test_pool_holds_peak_in_flight;
  ]
