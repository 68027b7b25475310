type queue_kind = Equeue.kind = Wheel_queue | Heap_queue

(* Process-wide default backend: the timing wheel, unless overridden
   by --engine-queue / ASMAN_ENGINE_QUEUE (the binary-heap oracle for
   differential runs). Read once per Engine.create. *)
let env_queue () =
  match Sys.getenv_opt "ASMAN_ENGINE_QUEUE" with
  | None -> None
  | Some s -> Equeue.kind_of_name (String.trim s)

let default_queue_ref : queue_kind option ref = ref None

let set_default_queue k = default_queue_ref := Some k

let default_queue () =
  match !default_queue_ref with
  | Some k -> k
  | None -> ( match env_queue () with Some k -> k | None -> Wheel_queue)

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

let create ?(seed = 1L) ?queue () =
  let kind = match queue with Some k -> k | None -> default_queue () in
  {
    clock = 0;
    queue = Equeue.create kind;
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

let step t =
  match Equeue.pop t.queue with
  | Equeue.Empty | Equeue.Beyond -> false
  | Equeue.Event (time, action) ->
    t.clock <- time;
    t.fired_count <- t.fired_count + 1;
    t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
    action ();
    true

let halt t = t.stop <- true

let halted t = t.stop

(* One queue descent per fired event: [Equeue.pop ?limit] locates the
   live minimum once and either extracts it or reports it beyond the
   horizon, where the old loop peeked (dropping cancelled events) and
   then popped (dropping them again). *)
let run ?until t =
  t.stop <- false;
  let continue = ref true in
  while !continue && not t.stop do
    match Equeue.pop ?limit:until t.queue with
    | Equeue.Event (time, action) ->
      t.clock <- time;
      t.fired_count <- t.fired_count + 1;
      t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
      action ()
    | Equeue.Beyond ->
      (match until with
      | Some limit -> t.clock <- max t.clock limit
      | None -> ());
      continue := false
    | Equeue.Empty -> continue := false
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
  let stopped = ref false in
  let pending = ref None in
  let rec fire () =
    action ();
    if not !stopped then begin
      let extra = match jitter with None -> 0 | Some j -> max 0 (j ()) in
      pending := Some (schedule_after t ~delay:(period + extra) fire)
    end
  in
  pending := Some (schedule_at t ~time:start fire);
  fun () ->
    stopped := true;
    match !pending with
    | Some h ->
      cancel t h;
      pending := None
    | None -> ()
