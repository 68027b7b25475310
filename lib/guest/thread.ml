type status =
  | Runnable
  | Spinning of int
  | Spin_barrier of int * int
  | Blocked_barrier of int * int
  | Blocked_sem of int
  | Blocked_sleep
  | Paused
  | Finished

type resume_point =
  | R_fetch
  | R_sleep
  | R_acquire
  | R_unlock
  | R_sem_wait
  | R_sem_post
  | R_barrier_arrive
  | R_barrier_locked
  | R_barrier_exit

type t = {
  id : int;
  affinity : int;
  program : Program.t;
  cursor : Program.cursor;
  rng : Sim_engine.Rng.t;
  restart : bool;
  mutable status : status;
  mutable resume : resume_point;
  mutable resume_arg : int;
  mutable pending_compute : int;
  mutable compute_started : int;
  mutable spin_request : int;
  mutable spin_holder : int;
  mutable locks_held : int;
  mutable rounds : int;
  mutable round_started : int;
  mutable marks : int;
  mutable total_spin_cycles : int;
  mutable some : t option;
}

let make ~id ~affinity ~restart ~rng program =
  let t =
    {
      id;
      affinity;
      program;
      cursor = Program.cursor program;
      rng;
      restart;
      status = Runnable;
      resume = R_fetch;
      resume_arg = 0;
      pending_compute = 0;
      compute_started = 0;
      spin_request = 0;
      spin_holder = -1;
      locks_held = 0;
      rounds = 0;
      round_started = 0;
      marks = 0;
      total_spin_cycles = 0;
      some = None;
    }
  in
  t.some <- Some t;
  t

let is_executable t =
  match t.status with
  | Runnable | Spinning _ | Spin_barrier _ -> true
  | Blocked_barrier _ | Blocked_sem _ | Blocked_sleep | Paused | Finished ->
    false

let is_preemptible_by_guest t =
  match t.status with
  | Runnable -> t.locks_held = 0 && t.resume = R_fetch
  | Spinning _ | Spin_barrier _ | Blocked_barrier _ | Blocked_sem _
  | Blocked_sleep | Paused | Finished ->
    false

let pp fmt t =
  let status =
    match t.status with
    | Runnable -> "runnable"
    | Spinning l -> Printf.sprintf "spin(lock %d)" l
    | Spin_barrier (b, g) -> Printf.sprintf "spin(barrier %d gen %d)" b g
    | Blocked_barrier (b, g) -> Printf.sprintf "sleep(barrier %d gen %d)" b g
    | Blocked_sem s -> Printf.sprintf "blocked(sem %d)" s
    | Blocked_sleep -> "sleeping"
    | Paused -> "paused"
    | Finished -> "finished"
  in
  Format.fprintf fmt "thread%d(vcpu %d %s rounds=%d)" t.id t.affinity status
    t.rounds
