(** The guest side of a VM: thread programs, threads and their
    per-VCPU scheduler, the guest kernel's synchronization objects,
    the Monitoring Module (paper §3.3) and the kernel that drives
    them from VCPU online/offline notifications.

    The eight modules are one compilation unit, so the
    per-instruction path (the kernel's fetch, {!Program.next}, the
    guest scheduler, the spinlock and {!Monitor.record_spin_wait})
    makes direct calls that the compiler may inline even in a build
    that compiles every unit with [-opaque]. *)

module Program : sig
  (** Guest thread programs.

      A program is the op-level model of a benchmark thread: compute
      chunks interleaved with kernel synchronization (spinlocks,
      semaphores, busy-wait barriers). {!make} compiles the op tree once
      into flat code, and a {!cursor} walks it as a resumable instruction
      stream — the guest kernel executes one instruction at a time and
      can be preempted between (or inside) instructions without losing
      position. *)

  type op =
    | Compute of int  (** deterministic compute, in cycles *)
    | Compute_rand of { mean : int; cv : float }
        (** log-normal compute chunk drawn at execution time (per-thread
            imbalance) *)
    | Lock of int  (** acquire guest-kernel spinlock [id] *)
    | Unlock of int
    | Sem_wait of int
    | Sem_post of int
    | Barrier of int  (** arrive at barrier [id] and busy-wait *)
    | Mark  (** application-level completion marker (e.g. one
                SPECjbb transaction); counted by the kernel *)
    | Sleep of int
        (** block the thread for exactly this many cycles of simulated
            time (a guest timer sleep, not busy-wait). The primitive
            scheduler-attack guests use to dodge the accounting tick. *)
    | Repeat of int * op list  (** [Repeat (n, body)] runs [body] n times *)

  (** An instruction's opcode; its operand is read with {!operand}. *)
  type instr =
    | I_compute  (** operand: cycles *)
    | I_lock  (** operand: lock id *)
    | I_unlock
    | I_sem_wait  (** operand: semaphore id *)
    | I_sem_post
    | I_barrier  (** operand: barrier id *)
    | I_mark
    | I_sleep  (** operand: cycles *)
    | I_end  (** the program has finished *)

  type t

  val make : op list -> t
  (** Raises [Invalid_argument] if any [Repeat] count or compute length
      is negative, a [Compute_rand] has non-positive mean, or a [Sleep]
      is non-positive. *)

  val ops : t -> op list

  val static_instr_count : t -> int
  (** Total instructions one full execution emits (loops unrolled). *)

  val total_compute_cycles : t -> int
  (** Sum of compute cycles using [mean] for random chunks — the ideal
      single-run CPU demand of the program. *)

  type cursor
  (** A position in the program's shared code: an integer program
      counter plus one integer iteration counter per loop. Advancing it
      writes only integers. *)

  val cursor : t -> cursor
  (** A fresh cursor at the start of the program. *)

  val reset : cursor -> unit

  val next : cursor -> rng:Sim_engine.Rng.t -> instr
  (** Advance and return the next instruction's opcode; [I_end] when the
      program has finished. [rng] materializes [Compute_rand] chunks.
      Allocates nothing: the opcode is a constant and the operand is
      left in the cursor. *)

  val operand : cursor -> int
  (** The operand of the instruction {!next} last returned (0 for
      [I_mark] and [I_end]). *)

  val locks_referenced : t -> int list
  (** Sorted, distinct lock ids used by [Lock]/[Unlock]. *)

  val barriers_referenced : t -> int list

  val semaphores_referenced : t -> int list
end

module Thread : sig
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
      The operand (cycles, or the object's kernel index) is the
      thread's [resume_arg]: a constant constructor plus an int field
      means setting a resume point allocates nothing. *)
  type resume_point =
    | R_fetch  (** fetch the next instruction *)
    | R_sleep  (** begin a timer sleep of [resume_arg] cycles *)
    | R_acquire  (** attempt to take the user spinlock at kernel index
                     [resume_arg] *)
    | R_unlock
    | R_sem_wait
    | R_sem_post
    | R_barrier_arrive
        (** take the internal lock of the barrier at kernel index
            [resume_arg] *)
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
    mutable operands : int array;
        (** per code position of [program], the kernel index of the
            lock, semaphore or barrier the instruction there names; set
            once by {!Kernel.add_thread} (empty before) *)
    mutable wait_index : int;
        (** kernel index of the lock ([Spinning]) or barrier
            ([Spin_barrier], [Blocked_barrier]) the thread waits on *)
  }

  val make :
    id:int ->
    affinity:int ->
    restart:bool ->
    rng:Sim_engine.Rng.t ->
    Program.t ->
    t


  val pp : Format.formatter -> t -> unit
end

module Gsched : sig
  (** Per-VCPU guest thread scheduler (round-robin).

      Each VCPU runs the threads pinned to it (affinity). The scheduler
      is deliberately simple — benchmarks of interest either pin one
      thread per VCPU (NAS) or balance statically (SPECjbb warehouses) —
      but honours kernel preemption rules: a thread that holds a
      spinlock or is spinning is never timesliced away by the guest
      (only the VMM can preempt its VCPU — the lock-holder-preemption
      hazard). *)

  type t

  val create : timeslice:int -> t
  (** [timeslice] in cycles; used by the kernel to rotate threads. *)

  val timeslice : t -> int

  val add : t -> Thread.t -> unit

  val threads : t -> Thread.t list

  val thread_count : t -> int

  val active : t -> Thread.t option

  val set_active : t -> Thread.t option -> unit

  val pick : t -> Thread.t option
  (** Next executable thread in round-robin order starting after the
      current active one; the active thread itself is returned if it is
      the only executable one. [None] when no thread can run. *)

  val executable_count : t -> int
end

module Spinlock : sig
  (** Guest-kernel spinlock (Linux 2.6.18 semantics: non-FIFO).

      Waiters spin, actively occupying their VCPU; on release the lock
      goes to the earliest-requesting waiter whose VCPU is currently
      online (after a cache-line handoff delay, during which the lock is
      {e reserved}). A waiter whose VCPU is offline keeps its place in
      the request order and re-contends when it comes back online.

      This is exactly the structure virtualization breaks: a preempted
      {e holder} leaves every online waiter spinning for one or more
      offline periods — the paper's over-threshold spinlocks. *)

  type t

  val create : id:int -> t

  val id : t -> int

  val owner : t -> Thread.t option

  val is_reserved : t -> bool
  (** A handoff grant is in flight. *)

  val try_acquire : t -> Thread.t -> now:int -> bool
  (** Fast path: succeeds iff the lock is free and unreserved. On
      success the thread becomes owner. *)

  val enqueue_waiter : t -> Thread.t -> now:int -> unit
  (** Register a contending thread (it should transition to
      [Spinning]). Raises [Invalid_argument] if it already waits or owns
      the lock. *)

  val release : t -> Thread.t -> unit
  (** Raises [Invalid_argument] unless the thread is the owner. The
      lock becomes free (waiters stay queued). *)

  val pick_online_waiter : t -> online:(Thread.t -> bool) -> Thread.t option
  (** Earliest-requesting waiter whose VCPU is online; [None] if the
      lock is not free, is reserved, or no waiter is online. *)

  val reserve_for : t -> Thread.t -> unit
  (** Start a handoff: mark reserved for the given waiter. *)

  val complete_grant : t -> Thread.t -> now:int -> int
  (** Finish a handoff: the thread (which must hold the reservation)
      becomes owner and leaves the waiter list. Returns its waiting time
      [now - request time]. *)

  val abort_grant : t -> Thread.t -> unit
  (** Cancel an in-flight handoff (e.g. the grantee was preempted); the
      thread stays a waiter. *)

  val waiter_count : t -> int

  val acquisitions : t -> int
  (** Total successful acquisitions (fast path + grants). *)

  val contended_acquisitions : t -> int
end

module Semaphore : sig
  (** Guest-kernel counting semaphore (blocking, FIFO).

      Waiters are descheduled (their VCPU can halt), so — unlike
      spinlocks — virtualization costs them little: the paper measures
      all semaphore waits below 2^16 cycles even at a 22.2% online
      rate. *)

  type t

  val create : id:int -> init:int -> t
  (** Raises [Invalid_argument] on a negative initial count. *)

  val id : t -> int

  val count : t -> int

  val try_wait : t -> bool
  (** Decrement if positive. *)

  val enqueue_waiter : t -> Thread.t -> now:int -> unit

  val post : t -> (Thread.t * int) option
  (** If a waiter exists, dequeue the oldest and return it with its
      enqueue time (the token transfers directly); otherwise increment
      the count and return [None]. *)

  val waiter_count : t -> int

  val waits : t -> int
  (** Total successful wait operations. *)

  val blocked_waits : t -> int
end

module Barrier : sig
  (** Sense-reversing busy-wait barrier (OpenMP-style).

      Arrival is protected by an internal guest-kernel spinlock (so the
      arrival path is monitored like any kernel lock — this is where NAS
      benchmarks contend); non-last threads then spin on the generation
      word until the last arrival bumps it. The spin is a busy wait: a
      waiting thread occupies its VCPU, so de-synchronized sibling VCPUs
      make barriers dramatically more expensive — the second mechanism
      (besides lock-holder preemption) behind Figure 1's degradation. *)

  type t

  val create : id:int -> parties:int -> t
  (** Raises [Invalid_argument] unless [parties >= 1]. *)

  val id : t -> int

  val parties : t -> int

  val lock : t -> Spinlock.t
  (** The internal arrival lock. *)

  val generation : t -> int

  val arrive : t -> now:int -> [ `Last | `Wait of int ]
  (** Record one arrival (caller must hold {!lock}). [`Last] means this
      arrival completes the barrier: the generation has been bumped and
      the caller should release waiters. [`Wait gen] tells the caller to
      spin until [generation t > gen]. *)

  val passed : t -> gen:int -> bool
  (** Has the barrier opened for a thread that arrived in [gen]? *)

  val crossings : t -> int
  (** Completed barrier episodes. *)

  val longest_episode : t -> int
  (** Longest wall-clock time between the first arrival and the opening
      of an episode. *)
end

module Monitor : sig
  (** The Monitoring Module (paper §3.3), one per VM.

      Runs "in the guest kernel": instruments every spinlock acquisition
      with the hi-res timer, keeps the waiting-time histograms (Figures
      1b, 2, 8), hands each long wait to an optional listener (the raw
      trace behind Fig 2's locality note and [asman trace]), and detects {e over-threshold} spinlocks —
      waits above [2^delta_exp] cycles (δ = 20). Each detection is a
      VCRD {e adjusting event} (Algorithm 1): the {!Sim_learn.Estimator}
      picks a lasting time [x], the module raises the domain's VCRD to
      HIGH through the [do_vcrd_op] hypercall, and — if no further
      over-threshold spinlock arrives within [x] — lowers it back. A
      further detection inside the window is simply the next adjusting
      event: the estimate is refreshed and the window extended. *)

  type params = {
    delta_exp : int;  (** δ: over-threshold boundary is 2^δ cycles *)
    trace_exp : int;  (** pass waits >= 2^trace_exp to the listener *)
    report_vcrd : bool;
        (** issue hypercalls (off when the module only observes, e.g.
            under the plain Credit scheduler one can disable reporting —
            the scheduler would ignore it anyway) *)
    estimator : Sim_learn.Estimator.params;
  }

  val default_params : slot_cycles:int -> params
  (** δ = 20, trace threshold 2^10, reporting on. *)

  type trace_entry = { time : int; wait : int; lock_id : int }

  type t

  val create :
    params ->
    engine:Sim_engine.Engine.t ->
    hypercall:Sim_vmm.Hypercall.t ->
    domain:Sim_vmm.Domain.t ->
    rng:Sim_engine.Rng.t ->
    t

  val params : t -> params

  val park : t -> unit
  (** Source-side half of a decoupled-VMM domain migration: disarm and
      free the monitor's one timer (the HIGH-window end check) on the
      current engine. Must run on the source host — it mutates that
      engine's queue and slab. *)

  val retarget : t -> engine:Sim_engine.Engine.t -> unit
  (** Destination-side half: swap engines, bind the window timer on the
      new one and, if {!park} interrupted an open HIGH window, re-arm
      it. The window
      budget is metered in guest online cycles, continuous across
      hosts, so the window survives the move. *)

  val threshold_cycles : t -> int
  (** [2^delta_exp]. *)

  val record_spin_wait :
    t -> vcpu:int -> holder:int -> lock_id:int -> wait:int -> unit
  (** Called by the kernel at every spinlock acquisition with the
      measured wall-clock waiting time (0 for the uncontended fast
      path). May trigger an adjusting event. [vcpu] is the waiter's
      VCPU and [holder] the VCPU holding the lock when the wait began
      (both -1 = unknown, e.g. barrier flag spins; plain labels, not
      optional arguments, so a call boxes nothing); over-threshold
      waits are emitted as [Spin_overthreshold] trace events carrying
      them, the join key for LHP classification. *)

  val record_sem_wait : t -> wait:int -> unit

  val spin_histogram : t -> Sim_stats.Histogram.t
  val sem_histogram : t -> Sim_stats.Histogram.t

  val on_traced_wait : t -> (trace_entry -> unit) -> unit
  (** Install the listener (replacing any earlier one) for spin waits
      [>= 2^trace_exp]: it is called once per such wait, in recording
      order, with the engine time of the recording. The monitor keeps
      no entries itself; without a listener a long wait costs one
      branch. *)

  val over_threshold_count : t -> int

  val adjusting_events : t -> int

  val estimator : t -> Sim_learn.Estimator.t

  val reset_window : t -> unit
  (** Clear the histograms and the over-threshold count (not the
      learner, nor the listener): starts a fresh measurement window,
      e.g. the paper's 30-second observation. *)
end

module Kernel : sig
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
      otherwise) and free the VCPU timers, the continuation pool's
      timers and the monitor's window timer on the source engine. Call
      before {!Sim_vmm.Vmm.detach_domain}. *)

  val pooled_continuations : t -> int
  (** Entries of the kernel's continuation pool, each an engine timer
      bound on its current engine that carries one untracked kernel
      timer (sleep wake, lock handoff, barrier release, PLE window or
      spin-grace fallback). The pool grows only when every entry is in
      flight, so this is the most ever in flight at once since the
      pool was built; {!park} empties it. *)

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
end
