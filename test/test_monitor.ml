(* Tests for the Monitoring Module: recording, thresholds, VCRD
   window management through the hypercall. *)

open Asman

let freq = Config.freq Config.default

let make_env () =
  (* A minimal stack: machine + vmm + one 2-VCPU domain, no guest
     kernel — we drive the monitor directly. *)
  let engine = Sim_engine.Engine.create ~seed:2L () in
  let machine =
    Sim_hw.Machine.create engine Config.default.Config.cpu
      Config.default.Config.topology
  in
  let vmm = Sim_vmm.Vmm.create machine ~sched:Sim_vmm.Sched_credit.make in
  let domain = Sim_vmm.Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus:2 () in
  let hypercall = Sim_vmm.Hypercall.create vmm in
  let params =
    Sim_guest.Monitor.default_params
      ~slot_cycles:(Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu)
  in
  let monitor =
    Sim_guest.Monitor.create params ~engine ~hypercall ~domain
      ~rng:(Sim_engine.Rng.create 3L)
  in
  (engine, vmm, domain, hypercall, monitor)

let test_default_threshold () =
  let _, _, _, _, monitor = make_env () in
  Alcotest.(check int) "2^20" 1_048_576
    (Sim_guest.Monitor.threshold_cycles monitor)

let test_traced_wait_listener () =
  let engine, _, _, _, monitor = make_env () in
  let seen = ref [] in
  Sim_guest.Monitor.on_traced_wait monitor (fun e -> seen := e :: !seen);
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:1 ~wait:0;
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:1 ~wait:1_023;
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:2 ~wait:1_024;
  ignore (Sim_engine.Engine.schedule_at engine ~time:1_000 (fun () ->
      Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
        ~lock_id:3 ~wait:500;
      Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
        ~lock_id:4 ~wait:6_000));
  Sim_engine.Engine.run engine;
  let h = Sim_guest.Monitor.spin_histogram monitor in
  Alcotest.(check int) "histogram sees every wait" 5
    (Sim_stats.Histogram.count h);
  (* Only waits >= 2^10 arrive, in order, stamped with engine time. *)
  Alcotest.(check (list (triple int int int))) "time, wait, lock"
    [ (0, 1_024, 2); (1_000, 6_000, 4) ]
    (List.rev_map
       (fun (e : Sim_guest.Monitor.trace_entry) ->
         Sim_guest.Monitor.(e.time, e.wait, e.lock_id))
       !seen);
  Alcotest.(check int) "no over-threshold" 0
    (Sim_guest.Monitor.over_threshold_count monitor);
  (* Without a listener the monitor keeps nothing per wait. *)
  let _, _, _, _, bare = make_env () in
  Sim_guest.Monitor.record_spin_wait bare ~vcpu:(-1) ~holder:(-1)
    ~lock_id:1 ~wait:2_000;
  let words = Obj.reachable_words (Obj.repr bare) in
  for i = 1 to 1_000 do
    Sim_guest.Monitor.record_spin_wait bare ~vcpu:(-1) ~holder:(-1)
      ~lock_id:i ~wait:(2_000 + i)
  done;
  Alcotest.(check int) "no entries kept" words
    (Obj.reachable_words (Obj.repr bare))

let test_over_threshold_raises_vcrd () =
  let _, _, domain, hypercall, monitor = make_env () in
  Alcotest.(check bool) "low before" true (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.Low);
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:7 ~wait:2_000_000;
  Alcotest.(check bool) "high after" true
    (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High);
  Alcotest.(check int) "one adjusting event" 1
    (Sim_guest.Monitor.adjusting_events monitor);
  Alcotest.(check int) "hypercall counted" 1
    (Sim_vmm.Hypercall.stats hypercall).Sim_vmm.Hypercall.to_high

let test_window_closes_after_online_budget () =
  let engine, vmm, domain, _, monitor = make_env () in
  Sim_vmm.Vmm.start vmm;
  (* Give the domain runnable VCPUs so it consumes online time. *)
  Array.iter (fun v -> Sim_vmm.Vmm.vcpu_wake vmm v) domain.Sim_vmm.Domain.vcpus;
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:7 ~wait:2_000_000;
  Alcotest.(check bool) "high" true (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High);
  (* The longest candidate is 16 slots of online time per VCPU; with
     both VCPUs always online that is at most ~16 slots of wall time.
     Run for 40 slots to be safe. *)
  let slot = Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu in
  Sim_engine.Engine.run ~until:(40 * slot) engine;
  Alcotest.(check bool) "low after window" true
    (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.Low)

let test_retrigger_extends_window () =
  let engine, vmm, domain, _, monitor = make_env () in
  Sim_vmm.Vmm.start vmm;
  Array.iter (fun v -> Sim_vmm.Vmm.vcpu_wake vmm v) domain.Sim_vmm.Domain.vcpus;
  let slot = Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu in
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:7 ~wait:2_000_000;
  (* Re-trigger well inside even the smallest window (slot/2 of wall
     time with both VCPUs online): VCRD must stay HIGH throughout. *)
  for i = 1 to 20 do
    Sim_engine.Engine.run ~until:(i * slot / 8) engine;
    Alcotest.(check bool) "still high" true
      (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High);
    Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
      ~lock_id:7 ~wait:2_000_000
  done;
  Alcotest.(check int) "21 adjusting events" 21
    (Sim_guest.Monitor.adjusting_events monitor)

let test_report_disabled () =
  let engine = Sim_engine.Engine.create () in
  let machine =
    Sim_hw.Machine.create engine Config.default.Config.cpu
      Config.default.Config.topology
  in
  let vmm = Sim_vmm.Vmm.create machine ~sched:Sim_vmm.Sched_credit.make in
  let domain = Sim_vmm.Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus:2 () in
  let hypercall = Sim_vmm.Hypercall.create vmm in
  let params =
    {
      (Sim_guest.Monitor.default_params
         ~slot_cycles:(Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu))
      with
      Sim_guest.Monitor.report_vcrd = false;
    }
  in
  let monitor =
    Sim_guest.Monitor.create params ~engine ~hypercall ~domain
      ~rng:(Sim_engine.Rng.create 3L)
  in
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:7 ~wait:2_000_000;
  Alcotest.(check bool) "vcrd untouched" true
    (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.Low);
  Alcotest.(check int) "but still counted" 1
    (Sim_guest.Monitor.over_threshold_count monitor)

let test_reset_window () =
  let _, _, _, _, monitor = make_env () in
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:1 ~wait:5_000;
  Sim_guest.Monitor.record_sem_wait monitor ~wait:100;
  Sim_guest.Monitor.reset_window monitor;
  Alcotest.(check int) "spin cleared" 0
    (Sim_stats.Histogram.count (Sim_guest.Monitor.spin_histogram monitor));
  Alcotest.(check int) "sem cleared" 0
    (Sim_stats.Histogram.count (Sim_guest.Monitor.sem_histogram monitor))

(* Migration halves: [park] frees the armed window timer on the source
   engine, and [retarget] binds a new one on the destination and
   re-arms the interrupted window there. *)
let test_park_moves_window () =
  let engine, _, domain, _, monitor = make_env () in
  let before = Sim_engine.Engine.pending_count engine in
  Sim_guest.Monitor.record_spin_wait monitor ~vcpu:(-1) ~holder:(-1)
    ~lock_id:7 ~wait:2_000_000;
  Alcotest.(check int) "window armed" (before + 1)
    (Sim_engine.Engine.pending_count engine);
  Sim_guest.Monitor.park monitor;
  Alcotest.(check int) "park frees it on the source" before
    (Sim_engine.Engine.pending_count engine);
  let dst = Sim_engine.Engine.create () in
  Sim_guest.Monitor.retarget monitor ~engine:dst;
  Alcotest.(check int) "re-armed on the destination" 1
    (Sim_engine.Engine.pending_count dst);
  Alcotest.(check bool) "still high" true
    (domain.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High);
  Alcotest.(check bool) "the window check fires there" true
    (Sim_engine.Engine.step dst);
  Sim_guest.Monitor.park monitor;
  Sim_guest.Monitor.retarget monitor ~engine;
  Alcotest.(check int) "and moves back" (before + 1)
    (Sim_engine.Engine.pending_count engine);
  Alcotest.(check int) "leaving nothing behind" 0
    (Sim_engine.Engine.pending_count dst)

let suite =
  [
    Alcotest.test_case "threshold" `Quick test_default_threshold;
    Alcotest.test_case "traced-wait listener" `Quick test_traced_wait_listener;
    Alcotest.test_case "over-threshold raises vcrd" `Quick
      test_over_threshold_raises_vcrd;
    Alcotest.test_case "window closes" `Quick test_window_closes_after_online_budget;
    Alcotest.test_case "retrigger extends" `Quick test_retrigger_extends_window;
    Alcotest.test_case "report disabled" `Quick test_report_disabled;
    Alcotest.test_case "reset window" `Quick test_reset_window;
    Alcotest.test_case "park and retarget move the window" `Quick
      test_park_moves_window;
  ]
