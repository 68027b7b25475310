open Sim_engine

type t = {
  estimator : Estimator.t;
  vcpus : int;
  online : unit -> int;
  high : unit -> unit;
  low : unit -> unit;
  mutable engine : Engine.t;
  mutable timer : Engine.timer;  (** the HIGH window's end check *)
  mutable budget : int;  (** online cycles left in the HIGH window *)
  mutable anchor : int;  (** domain online cycles at the last re-arm *)
  mutable parked : bool;  (** a HIGH window was cancelled by {!park} *)
}

(* The HIGH window is metered in guest-consumed CPU time, not wall
   time: a capped VM may be entirely offline for long stretches during
   which no synchronization can occur, and a wall-clock window would
   silently expire there. The budget is [x * vcpus] online cycles —
   equivalent to [x] wall cycles when the whole gang is coscheduled.
   The timer re-arms until the budget is consumed. *)
let arm t =
  let delay = Int.max (Units.pow2 20) (t.budget / t.vcpus) in
  Engine.arm t.engine t.timer ~delay

(* [t.timer]'s action. *)
let check t =
  let consumed = t.online () - t.anchor in
  if consumed >= t.budget then t.low ()
  else begin
    t.anchor <- t.anchor + consumed;
    t.budget <- t.budget - consumed;
    arm t
  end

let create params rng ~engine ~vcpus ~online ~high ~low =
  let t =
    {
      estimator = Estimator.create params rng;
      vcpus;
      online;
      high;
      low;
      engine;
      timer = Engine.no_timer;
      budget = 0;
      anchor = 0;
      parked = false;
    }
  in
  t.timer <- Engine.timer engine (fun () -> check t);
  t

(* Algorithm 1. The estimator's clock is per-VCPU guest online time,
   not wall time: localities of synchronization are a property of the
   program, which makes progress only while the VM is online. *)
let adjusting_event t =
  let x = Estimator.on_adjusting_event t.estimator ~now:(t.online () / t.vcpus) in
  Engine.disarm t.engine t.timer;
  t.high ();
  t.budget <- x * t.vcpus;
  t.anchor <- t.online ();
  arm t

let armed t = Engine.armed t.engine t.timer

let estimator t = t.estimator

let park t =
  t.parked <- armed t;
  Engine.free_timer t.engine t.timer;
  t.timer <- Engine.no_timer

let retarget t ~engine =
  t.engine <- engine;
  t.timer <- Engine.timer engine (fun () -> check t);
  if t.parked then begin
    t.parked <- false;
    arm t
  end
