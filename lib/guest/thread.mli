(** Guest thread: the execution state of one program instance.

    A thread advances through its program's instruction stream; all
    in-progress timed work is captured by [pending_compute] plus a
    {!resume_point}, so the kernel can preempt a VCPU at any instant
    and later resume the thread exactly where it stopped. *)

type status =
  | Runnable  (** executes when its VCPU is online and selected *)
  | Spinning of int  (** busy-waiting on a spinlock (occupies the VCPU) *)
  | Spin_barrier of int * int  (** busy-waiting on barrier [id] for a
                                   generation newer than the second field *)
  | Blocked_barrier of int * int
      (** barrier wait after the spin grace expired: the thread
          futex-sleeps (OpenMP spin-then-block), releasing the VCPU *)
  | Blocked_sem of int  (** descheduled, waiting on a semaphore *)
  | Blocked_sleep
      (** timer sleep ([Program.Sleep]): descheduled until a kernel
          timer wakes it at an exact simulated instant *)
  | Paused
      (** frozen at an instruction boundary by {!Kernel.request_freeze}
          (stop-and-copy migration): descheduled, holding no locks,
          resumed verbatim by {!Kernel.thaw} on the destination host *)
  | Finished

(** Where execution continues once [pending_compute] reaches zero.
    The operand (cycles or object id) is the thread's [resume_arg]:
    a constant constructor plus an int field means setting a resume
    point allocates nothing. *)
type resume_point =
  | R_fetch  (** fetch the next instruction *)
  | R_sleep  (** begin a timer sleep of [resume_arg] cycles *)
  | R_acquire  (** attempt to take user spinlock [resume_arg] *)
  | R_unlock
  | R_sem_wait
  | R_sem_post
  | R_barrier_arrive  (** take barrier [resume_arg]'s internal lock *)
  | R_barrier_locked  (** inside the barrier's critical section *)
  | R_barrier_exit
      (** just observed the generation bump; record the measured wait
          and carry on *)

type t = {
  id : int;
  affinity : int;  (** VCPU index within the domain *)
  program : Program.t;
  cursor : Program.cursor;
  rng : Sim_engine.Rng.t;
  restart : bool;  (** start a new round when the program ends *)
  mutable status : status;
  mutable resume : resume_point;
  mutable resume_arg : int;  (** operand of [resume] *)
  mutable pending_compute : int;  (** cycles left before [resume] runs *)
  mutable compute_started : int;  (** engine time the open span began *)
  mutable spin_request : int;  (** timestamp of the outstanding lock request *)
  mutable spin_holder : int;
      (** VCPU id holding the awaited lock when the wait began; -1 =
          none/unknown (LHP attribution for the spin trace) *)
  mutable locks_held : int;
  mutable rounds : int;  (** completed program rounds *)
  mutable round_started : int;
  mutable marks : int;  (** [Mark] instructions executed (resettable) *)
  mutable total_spin_cycles : int;  (** wall time spent waiting on spinlocks *)
  mutable some : t option;
      (** [Some] of this thread, built once by [make] and never
          reassigned: the guest scheduler's active slot and its picks
          hand it out instead of boxing. *)
}

val make :
  id:int ->
  affinity:int ->
  restart:bool ->
  rng:Sim_engine.Rng.t ->
  Program.t ->
  t

val is_executable : t -> bool
(** Runnable, spinning or barrier-spinning: occupies a VCPU when
    selected. *)

val is_preemptible_by_guest : t -> bool
(** The guest scheduler may timeslice it away: pure compute, no locks
    held, not spinning (kernel spinlock semantics). *)

val pp : Format.formatter -> t -> unit
