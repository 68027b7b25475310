(* Allocation pins for the event path. Event bodies reuse callbacks
   built once per VCPU, PCPU and chain, carry the guest kernel's
   one-off continuations on pooled timers, scan run queues in place
   and keep the RNG state unboxed, so a fired event allocates only a
   few words on average. Two fixed runs pin that: a single-host ASMan
   scenario (2.72 words per event measured) and a two-shard decoupled
   one (2.32). Each bound sits about 20% above the measured value; a
   compute-completion callback allocated per event again (a closure
   of six words or more, on two events in three) breaks it. *)

open Asman

(* Four 8-VCPU VMs, LU/EP/CG/gcc as in the benchmark's decoupled
   workload, overcommit a 2x4 host fourfold. *)
let config =
  {
    Config.default with
    Config.topology = Sim_hw.Topology.make ~sockets:2 ~cores_per_socket:4;
    scale = 0.25;
    seed = 11L;
  }

let vms config =
  List.map
    (fun (name, desc) ->
      Scenario.vm ~name ~vcpus:8 ~weight:256
        (Scenario.workload_of_desc config desc))
    [
      ("lu", Scenario.W_nas "LU");
      ("ep", Scenario.W_nas "EP");
      ("cg", Scenario.W_nas "CG");
      ("gcc", Scenario.W_speccpu "gcc");
    ]

(* Minor words allocated per fired event while [run] executes; [run]
   returns the number of events it fired. *)
let words_per_event run =
  let before = Gc.minor_words () in
  let events = run () in
  (Gc.minor_words () -. before) /. float_of_int events

let check_bound name ~bound words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f minor words per event (bound %.1f)" name words
       bound)
    true (words <= bound)

let test_single_host () =
  let s = Scenario.build config ~sched:Config.Asman ~vms:(vms config) in
  let engine = s.Scenario.engine in
  let words =
    words_per_event (fun () ->
        let fired = Sim_engine.Engine.events_fired engine in
        ignore (Runner.run_rounds s ~rounds:4 ~max_sec:60.);
        Sim_engine.Engine.events_fired engine - fired)
  in
  check_bound "single-host ASMan" ~bound:3.3 words

let test_decoupled () =
  let config = { config with Config.sim_jobs = 2 } in
  let d = Decouple.build config ~sched:Config.Asman ~vms:(vms config) in
  let words =
    words_per_event (fun () ->
        let r = Decouple.run ~workers:1 d ~rounds:4 ~max_sec:60. in
        r.Decouple.rp_events)
  in
  check_bound "2-shard decoupled" ~bound:2.8 words

let suite =
  [
    Alcotest.test_case "single host: minor words per event" `Quick
      test_single_host;
    Alcotest.test_case "decoupled: minor words per event" `Quick
      test_decoupled;
  ]
