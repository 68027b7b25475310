(** Guest kernel for one VM.

    Owns the VM's threads, synchronization objects, per-VCPU guest
    scheduler and Monitoring Module, and implements the execution
    machinery: it receives online/offline notifications through the
    VCPU hooks and advances threads by scheduling engine events for
    compute spans, lock handoffs and barrier releases.

    Execution model highlights:
    - All timed work is a [pending_compute] span plus a resume point,
      so VMM preemption at any instant is loss-free.
    - Spinning threads occupy their VCPU (burning its credit) and are
      never timesliced away by the guest — kernel spinlock semantics,
      the precondition for lock-holder preemption.
    - A spinlock released while some waiter's VCPU is online is handed
      over after the cache-handoff latency; otherwise it stays free
      until a waiter's VCPU comes back online. Waiting times are
      measured in wall-clock cycles and reported to the
      {!Monitor} — over-threshold waits raise VCRD via hypercall. *)

type params = {
  instr_overhead : int;  (** cycles charged per synchronization instruction *)
  handoff : int;  (** contended lock handoff latency, cycles *)
  flag_latency : int;  (** barrier-release observation latency, cycles *)
  timeslice : int;  (** guest scheduler timeslice, cycles *)
  spin_grace : int;
      (** barrier busy-wait budget per online span before the thread
          futex-sleeps (OpenMP/libgomp spin-then-block). Kernel
          {e spinlocks} never block — that asymmetry is the paper's
          entire subject. *)
  ple_window : int;
      (** cycles of continuous busy-spinning after which the modelled
          processor raises a pause-loop exit to the VMM (0 disables).
          Feeds the out-of-VM ASMan variant; harmless elsewhere. *)
  monitor : Monitor.params;
}

val default_params : Sim_hw.Cpu_model.t -> params
(** ~80-cycle instruction overhead, the model's cache-handoff latency,
    ~300-cycle flag latency, 4 ms timeslice, 10 ms spin grace (2008-era
    libgomp active-wait behaviour). *)

type t

val create :
  ?params:params -> Sim_vmm.Vmm.t -> Sim_vmm.Domain.t -> unit -> t
(** Installs hooks on the domain's VCPUs. One kernel per domain. *)

val vmm : t -> Sim_vmm.Vmm.t
val domain : t -> Sim_vmm.Domain.t
val monitor : t -> Monitor.t
val hypercall : t -> Sim_vmm.Hypercall.t
val params : t -> params

(** {2 Synchronization objects} *)

val add_semaphore : t -> id:int -> init:int -> unit
val add_barrier : t -> id:int -> parties:int -> unit

val lock_stats : t -> (int * Spinlock.t) list
(** All guest-kernel spinlocks (user locks and barrier-internal
    locks), keyed by id. *)

val barrier_stats : t -> (int * Barrier.t) list

(** {2 Threads} *)

val add_thread :
  t -> ?restart:bool -> affinity:int -> Program.t -> Thread.t
(** [affinity] is taken modulo the domain's VCPU count. [restart]
    makes the thread begin a new round when its program ends
    (throughput workloads). Must be called before {!launch}. Raises
    [Invalid_argument] if the program references an undeclared
    semaphore or barrier. *)

val threads : t -> Thread.t list

val set_round_hook : t -> (Thread.t -> round:int -> duration:int -> unit) -> unit
(** Called whenever a thread completes one full pass of its program. *)

val set_finished_hook : t -> (Thread.t -> unit) -> unit
(** Called when a non-restarting thread finishes for good. *)

val launch : t -> unit
(** Wake every VCPU that has an executable thread. Requires the VMM to
    have been started (or to be started before the engine runs). *)

val launched : t -> bool
(** Whether {!launch} has run. *)

(** {2 Decoupled-VMM domain migration} *)

val quiescent : t -> bool
(** The kernel-side quiescence gate: no VCPU online and no untracked
    kernel timer (sleep wake, lock handoff, barrier release, PLE
    window, spin-grace fallback) in flight — i.e. the kernel owns
    zero pending events on its current engine, so the domain may
    leave this host. *)

val request_halt : t -> unit
(** Ask the guest to drain: every thread retires at its next
    instruction boundary (lock holders unwind their critical sections
    first so waiters are never orphaned), after which the domain
    converges to {!quiescent} without outside help. Idempotent;
    callers poll {!quiescent} to learn when the drain has landed.
    Used by the cluster layer to complete trace departures. *)

val halt_requested : t -> bool
(** Whether {!request_halt} has been called. *)

val request_freeze : t -> unit
(** Reversible sibling of {!request_halt} for stop-and-copy migration
    of a {e running} guest: every thread pauses at its next
    instruction boundary (lock holders unwind first, pending sleeps
    fire out) and the domain converges to {!quiescent} with all guest
    state intact. Idempotent; callers poll {!quiescent}. *)

val freeze_requested : t -> bool
(** Whether {!request_freeze} has been called (and no {!thaw} yet). *)

val thaw : t -> unit
(** Resume a frozen guest: clear the freeze and wake every paused
    thread, which refetches from the cursor it froze at. Run on the
    destination host after {!retarget} + [Vmm.attach_domain] — no
    guest progress is lost across the migration. *)

val park : t -> unit
(** Source-side half of a migration: verify {!quiescent} (fails
    otherwise) and free the VCPU timers and the monitor's window timer
    on the source engine. Call before {!Sim_vmm.Vmm.detach_domain}. *)

val retarget : t -> vmm:Sim_vmm.Vmm.t -> unit
(** Destination-side half: re-point the kernel, its monitor and its
    hypercall channel at the domain's new host, binding fresh timers
    on its engine. Fails unless {!quiescent} there. The caller pairs {!park}/[detach_domain] on the
    source with [retarget]/{!Sim_vmm.Vmm.attach_domain} on the
    destination. *)

(** {2 Measurements} *)

val min_rounds : t -> int
(** Smallest completed-round count over all threads: round [k] of the
    VM as a whole is done when [min_rounds >= k]. *)

val total_marks : t -> int
(** Sum of [Mark] executions since the last {!reset_marks}. *)

val reset_marks : t -> unit

val all_finished : t -> bool

val total_spin_cycles : t -> int
(** Aggregate wall-clock spinlock waiting across threads. *)
