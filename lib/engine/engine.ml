type queue_kind = Equeue.kind = Wheel_queue | Heap_queue

type t = {
  mutable clock : int;
  queue : Equeue.t;
  mutable stop : bool;
  mutable fired_count : int;
  (* Order-sensitive rolling hash of fire times: the per-member stream
     fingerprint the decoupled fabric's worker-count-invariance gate
     reads. One multiply-add per fired event. *)
  mutable stream_fp : int;
  root_rng : Rng.t;
  trace : Sim_obs.Trace.t;
}

type handle = Equeue.handle

let no_handle = -1

let create ?(seed = 1L) ?(queue = Wheel_queue) () =
  {
    clock = 0;
    queue = Equeue.create queue;
    stop = false;
    fired_count = 0;
    stream_fp = 0;
    root_rng = Rng.create seed;
    trace = Sim_obs.Trace.create ();
  }

let queue_kind t = Equeue.kind t.queue

let now t = t.clock

let trace t = t.trace

let rng t = t.root_rng

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time
         t.clock);
  Equeue.schedule t.queue ~time action

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ~time:(t.clock + delay) action

let cancel t h = ignore (Equeue.cancel t.queue h)

let is_pending t h = Equeue.is_pending t.queue h

let fire_time t h = Equeue.fire_time t.queue h

let pending_count t = Equeue.length t.queue

let[@inline] fire t time action =
  t.clock <- time;
  t.fired_count <- t.fired_count + 1;
  t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
  action ()

let step t =
  if Equeue.ready t.queue then begin
    let time = Equeue.top_time t.queue in
    fire t time (Equeue.take t.queue);
    true
  end
  else false

let halt t = t.stop <- true

let halted t = t.stop

(* The fire loop: one queue descent per fired event ([Equeue.ready]),
   then the fire time is read and the action extracted in place, so
   firing an event allocates nothing. An event after [until] is left
   queued. *)
let run ?until t =
  t.stop <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let q = t.queue in
  let continue = ref true in
  while !continue && not t.stop do
    if Equeue.ready q then begin
      let time = Equeue.top_time q in
      if time <= limit then fire t time (Equeue.take q)
      else continue := false
    end
    else continue := false
  done;
  match until with
  | Some limit when (not t.stop) && t.clock < limit -> t.clock <- limit
  | _ -> ()

let events_fired t = t.fired_count

let stream_fp t = t.stream_fp

let next_time t = Equeue.next_time t.queue

(* Self-rescheduling event chains: the machine's slot/period clocks
   and the fault injector's recurring chaos windows. The action runs
   first and the next occurrence is scheduled after it returns, so a
   chain created with no jitter hook fires at exactly [start + k *
   period] with the same queue insertion order as a hand-rolled
   recursive schedule. *)
let periodic t ~start ~period ?jitter action =
  if period <= 0 then invalid_arg "Engine.periodic: period must be positive";
  (* One [fire] closure per chain, rescheduled as is: the pending
     handle is an immediate held in a ref, so a tick allocates
     nothing. *)
  let stopped = ref false in
  let pending = ref no_handle in
  let rec fire () =
    action ();
    if not !stopped then begin
      let extra = match jitter with None -> 0 | Some j -> Int.max 0 (j ()) in
      pending := schedule_after t ~delay:(period + extra) fire
    end
  in
  pending := schedule_at t ~time:start fire;
  fun () ->
    stopped := true;
    cancel t !pending;
    pending := no_handle
