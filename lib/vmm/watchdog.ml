type params = {
  ack_timeout : int;
  max_retries : int;
  backoff_base : int;
  fail_threshold : int;
  probation : int;
}

let default cpu =
  let slot = Sim_hw.Cpu_model.slot_cycles cpu in
  let ipi = cpu.Sim_hw.Cpu_model.ipi_latency_cycles in
  {
    (* Generous vs the ~2x worst-case cross-socket latency, tiny vs a
       slot: an ack window the fault-free simulator never misses. *)
    ack_timeout = Int.max (32 * ipi) (slot / 64);
    max_retries = 3;
    backoff_base = Int.max (16 * ipi) (slot / 128);
    fail_threshold = 3;
    probation = 10 * slot;
  }

type dom_state = {
  mutable expected : int;  (** IPIs sent by the tracked launch *)
  mutable acks : int;
  mutable gen : int;  (** launch generation; stale acks are ignored *)
  mutable retries_left : int;
  mutable backoff : int;
  mutable check_pending : bool;  (** a launch is being tracked *)
  mutable strikes : int;  (** timed-out checks since the last demotion *)
  mutable demoted_until : int;  (** absolute cycle; -1 = never demoted *)
}

(* The tallies live in the simulation's Obs.Metrics registry under
   subsystem "watchdog" (so one snapshot covers them), not in private
   mutable fields; the accessors below are thin registry reads. *)
type t = {
  params : params;
  metrics : Sim_obs.Metrics.t;
  launches : Sim_obs.Metrics.counter;
  acks_total : Sim_obs.Metrics.counter;
  timeouts : Sim_obs.Metrics.counter;
  retries : Sim_obs.Metrics.counter;
  demotions_c : Sim_obs.Metrics.counter;
  per_vm_demotions : (string, Sim_obs.Metrics.counter) Hashtbl.t;
}

let create ~metrics params =
  let c name = Sim_obs.Metrics.counter metrics ~subsystem:"watchdog" ~name () in
  {
    params;
    metrics;
    launches = c "cosched_launches";
    acks_total = c "ipi_acks";
    timeouts = c "watchdog_timeouts";
    retries = c "watchdog_retries";
    demotions_c = c "watchdog_demotions";
    per_vm_demotions = Hashtbl.create 8;
  }

let params t = t.params

let fresh () =
  {
    expected = 0;
    acks = 0;
    gen = 0;
    retries_left = 0;
    backoff = 0;
    check_pending = false;
    strikes = 0;
    demoted_until = -1;
  }

let demoted s ~now = now < s.demoted_until

let note_launch t = Sim_obs.Metrics.incr t.launches

let note_ack t = Sim_obs.Metrics.incr t.acks_total

let note_timeout t = Sim_obs.Metrics.incr t.timeouts

let note_retry t = Sim_obs.Metrics.incr t.retries

let note_demotion t ~vm =
  Sim_obs.Metrics.incr t.demotions_c;
  let per_vm =
    match Hashtbl.find_opt t.per_vm_demotions vm with
    | Some c -> c
    | None ->
      let c =
        Sim_obs.Metrics.counter t.metrics ~subsystem:"watchdog" ~vm
          ~name:"demotions" ()
      in
      Hashtbl.replace t.per_vm_demotions vm c;
      c
  in
  Sim_obs.Metrics.incr per_vm

let counter_list t =
  [
    ("cosched_launches", Sim_obs.Metrics.value t.launches);
    ("ipi_acks", Sim_obs.Metrics.value t.acks_total);
    ("watchdog_timeouts", Sim_obs.Metrics.value t.timeouts);
    ("watchdog_retries", Sim_obs.Metrics.value t.retries);
    ("watchdog_demotions", Sim_obs.Metrics.value t.demotions_c);
  ]
