open Sim_engine

type params = {
  instr_overhead : int;
  handoff : int;
  flag_latency : int;
  timeslice : int;
  spin_grace : int;
  ple_window : int;
  monitor : Monitor.params;
}

let default_params (cpu : Sim_hw.Cpu_model.t) =
  let freq = cpu.Sim_hw.Cpu_model.freq in
  {
    instr_overhead = Units.cycles_of_ns freq 35;
    handoff = cpu.Sim_hw.Cpu_model.cache_handoff_cycles;
    flag_latency = Units.cycles_of_ns freq 130;
    timeslice = Units.cycles_of_ms freq 4;
    spin_grace = Units.cycles_of_ms freq 10;
    ple_window = Units.pow2 20;
    monitor =
      Monitor.default_params ~slot_cycles:(Sim_hw.Cpu_model.slot_cycles cpu);
  }

(* The two per-VCPU timers are bound on the kernel's engine with
   callbacks built once (at creation, and again on each retarget),
   which read what changes from this record and the guest scheduler,
   so arming one allocates nothing and stores no pointer. The compute
   timer completes the VCPU's active thread's chunk: it is disarmed
   whenever that thread stops being active. *)
type vcpu_ctx = {
  vcpu : Sim_vmm.Vcpu.t;
  gsched : Gsched.t;
  mutable online : bool;
  mutable compute : Engine.timer;  (** compute completion *)
  mutable slice : Engine.timer;  (** timeslice rotation *)
}

type t = {
  mutable vmm : Sim_vmm.Vmm.t;
  domain : Sim_vmm.Domain.t;
  mutable engine : Engine.t;
  params : params;
  hypercall : Sim_vmm.Hypercall.t;
  monitor : Monitor.t;
  rng : Rng.t;
  locks : Spinlock.t Id_table.t;
  sems : Semaphore.t Id_table.t;
  barriers : Barrier.t Id_table.t;
  vcpus : vcpu_ctx array;
  mutable threads_rev : Thread.t list;
  mutable next_thread_id : int;
  mutable round_hook : Thread.t -> round:int -> duration:int -> unit;
  mutable finished_hook : Thread.t -> unit;
  mutable launched : bool;
  mutable halted : bool;
      (** a drain was requested: threads retire at their next
          instruction boundary instead of fetching more work *)
  mutable frozen : bool;
      (** a freeze was requested (stop-and-copy migration): threads
          pause at their next instruction boundary and resume verbatim
          when {!thaw} runs on the destination host *)
  mutable pending_untracked : int;
      (** in-flight kernel timers not tracked through a vcpu_ctx
          handle; must be 0 before the domain may migrate *)
}

let vmm t = t.vmm
let domain t = t.domain
let monitor t = t.monitor
let hypercall t = t.hypercall
let params t = t.params
let threads t = List.rev t.threads_rev

let now t = Engine.now t.engine

(* ----- object lookup ----- *)

(* [find] rather than [find_opt]: a hit, the common case on every
   acquire, then boxes no option. *)
let ensure_lock t id =
  match Id_table.find t.locks id with
  | l -> l
  | exception Not_found ->
    let l = Spinlock.create ~id in
    Id_table.replace t.locks id l;
    l

let get_sem t id =
  match Id_table.find t.sems id with
  | s -> s
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Kernel: undeclared semaphore %d" id)

let get_barrier t id =
  match Id_table.find t.barriers id with
  | b -> b
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Kernel: undeclared barrier %d" id)

let add_semaphore t ~id ~init =
  if Id_table.mem t.sems id then
    invalid_arg "Kernel.add_semaphore: duplicate id";
  Id_table.replace t.sems id (Semaphore.create ~id ~init)

let add_barrier t ~id ~parties =
  if Id_table.mem t.barriers id then
    invalid_arg "Kernel.add_barrier: duplicate id";
  Id_table.replace t.barriers id (Barrier.create ~id ~parties)

let lock_stats t =
  let user = Id_table.fold (fun id l acc -> (id, l) :: acc) t.locks [] in
  let internal =
    Id_table.fold
      (fun _ b acc ->
        let l = Barrier.lock b in
        (Spinlock.id l, l) :: acc)
      t.barriers []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (user @ internal)

let barrier_stats t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Id_table.fold (fun id b acc -> (id, b) :: acc) t.barriers [])

(* ----- thread/vcpu helpers ----- *)

let vctx_of t (thread : Thread.t) = t.vcpus.(thread.Thread.affinity)

(* System-wide VCPU id of the thread's (fixed-affinity) VCPU — the
   identity scheduling trace events use, so spin waits recorded with
   it can be joined against the VMM timeline. *)
let vcpu_id_of t (thread : Thread.t) =
  (vctx_of t thread).vcpu.Sim_vmm.Vcpu.id

(* A thread "occupies" its VCPU when it is the active guest thread and
   the VCPU is online: only then does it actually execute (or spin). *)
let occupying t thread =
  let vc = vctx_of t thread in
  vc.online
  &&
  match Gsched.active vc.gsched with
  | Some active -> active == thread
  | None -> false

(* Pseudo lock id under which a barrier's flag-spin waits are reported
   (distinct from its arrival lock's id, which is [-(id + 1)]). *)
let flag_id barrier = -(1000 + Barrier.id barrier)

(* Self-validating kernel timers that are not tracked through a
   vcpu_ctx timer — sleep wakes, lock handoffs, barrier releases,
   PLE windows, spin-grace fallbacks — are counted while in flight:
   their events capture [t] and live on the current engine, so the
   decoupled-VMM quiescence gate ({!quiescent}) refuses to migrate a
   domain whose kernel still has one pending. Every continuation
   scheduled here calls {!untracked_fired} first; that saves wrapping
   each one in a second closure. *)
let schedule_untracked t ~delay k =
  t.pending_untracked <- t.pending_untracked + 1;
  ignore (Engine.schedule_after t.engine ~delay k)

let untracked_fired t = t.pending_untracked <- t.pending_untracked - 1

(* ----- execution machinery ----- *)

let rec continue_thread t vc (thread : Thread.t) =
  assert vc.online;
  if thread.Thread.pending_compute > 0 then begin
    assert (
      match Gsched.active vc.gsched with
      | Some active -> active == thread
      | None -> false);
    thread.Thread.compute_started <- now t;
    Engine.arm t.engine vc.compute ~delay:thread.Thread.pending_compute
  end
  else do_resume t vc thread

(* [vc.compute]'s action. The timer is disarmed whenever its thread
   stops being the VCPU's active thread, so the active thread is the
   one whose chunk completed. *)
and compute_done t vc () =
  match Gsched.active vc.gsched with
  | Some thread ->
    thread.Thread.pending_compute <- 0;
    do_resume t vc thread
  | None -> ()

and do_resume t vc (thread : Thread.t) =
  let arg = thread.Thread.resume_arg in
  match thread.Thread.resume with
  | Thread.R_fetch -> fetch t vc thread
  | Thread.R_sleep ->
    (* Timer sleep: release the VCPU and arm a wake at an exact
       instant. Self-validating like every kernel timer — only a
       thread still in [Blocked_sleep] is woken (a sleeping thread
       cannot be re-dispatched, so the status check suffices). *)
    thread.Thread.status <- Thread.Blocked_sleep;
    thread.Thread.resume <- Thread.R_fetch;
    schedule_untracked t ~delay:arg (fun () ->
        untracked_fired t;
        match thread.Thread.status with
        | Thread.Blocked_sleep ->
          thread.Thread.status <- Thread.Runnable;
          wake_thread t thread
        | Thread.Runnable | Thread.Spinning _ | Thread.Spin_barrier _
        | Thread.Blocked_barrier _ | Thread.Blocked_sem _ | Thread.Paused
        | Thread.Finished ->
          ());
    rotate_or_halt t vc
  | Thread.R_acquire ->
    let lock = ensure_lock t arg in
    acquire_lock t vc thread lock ~cs:0 ~next:Thread.R_fetch ~arg:0
  | Thread.R_unlock ->
    let lock = ensure_lock t arg in
    Spinlock.release lock thread;
    thread.Thread.locks_held <- thread.Thread.locks_held - 1;
    handoff_check t lock;
    thread.Thread.resume <- Thread.R_fetch;
    fetch t vc thread
  | Thread.R_sem_wait ->
    let sem = get_sem t arg in
    if Semaphore.try_wait sem then begin
      thread.Thread.resume <- Thread.R_fetch;
      fetch t vc thread
    end
    else begin
      Semaphore.enqueue_waiter sem thread ~now:(now t);
      thread.Thread.status <- Thread.Blocked_sem arg;
      thread.Thread.resume <- Thread.R_fetch;
      rotate_or_halt t vc
    end
  | Thread.R_sem_post ->
    let sem = get_sem t arg in
    (match Semaphore.post sem with
    | None -> ()
    | Some (waiter, since) ->
      Monitor.record_sem_wait t.monitor ~wait:(now t - since);
      waiter.Thread.status <- Thread.Runnable;
      wake_thread t waiter);
    thread.Thread.resume <- Thread.R_fetch;
    fetch t vc thread
  | Thread.R_barrier_arrive ->
    let barrier = get_barrier t arg in
    acquire_lock t vc thread (Barrier.lock barrier) ~cs:t.params.instr_overhead
      ~next:Thread.R_barrier_locked ~arg
  | Thread.R_barrier_locked ->
    let barrier_id = arg in
    let barrier = get_barrier t barrier_id in
    let lock = Barrier.lock barrier in
    let outcome = Barrier.arrive barrier ~now:(now t) in
    Spinlock.release lock thread;
    thread.Thread.locks_held <- thread.Thread.locks_held - 1;
    handoff_check t lock;
    thread.Thread.resume <- Thread.R_fetch;
    (match outcome with
    | `Last ->
      (* The last arriver never spins on the flag: zero wait. *)
      Monitor.record_spin_wait t.monitor ~vcpu:(-1) ~holder:(-1)
        ~lock_id:(flag_id barrier) ~wait:0;
      release_barrier t barrier;
      fetch t vc thread
    | `Wait gen ->
      thread.Thread.status <- Thread.Spin_barrier (barrier_id, gen);
      thread.Thread.spin_request <- now t;
      (* Busy-wait with a grace budget: if the flag does not flip
         within [spin_grace], fall back to a futex sleep. *)
      arm_spin_grace t thread barrier_id gen;
      arm_ple t thread)
  | Thread.R_barrier_exit ->
    let barrier = get_barrier t arg in
    let wait = now t - thread.Thread.spin_request in
    thread.Thread.total_spin_cycles <- thread.Thread.total_spin_cycles + wait;
    (* Barrier flag spins have no lock holder: the classifier falls
       back to a sibling-descheduled heuristic for these. *)
    Monitor.record_spin_wait t.monitor ~vcpu:(vcpu_id_of t thread)
      ~holder:(-1) ~lock_id:(flag_id barrier) ~wait;
    thread.Thread.resume <- Thread.R_fetch;
    fetch t vc thread

and fetch t vc (thread : Thread.t) =
  if t.halted && thread.Thread.locks_held = 0 then begin
    (* Drain requested: retire at this instruction boundary.  Lock
       holders keep running until their critical sections unwind so
       waiters are never orphaned mid-handoff. *)
    thread.Thread.status <- Thread.Finished;
    t.finished_hook thread;
    rotate_or_halt t vc
  end
  else if t.frozen && thread.Thread.locks_held = 0 then begin
    (* Freeze requested: pause at this instruction boundary.  Same
       drain discipline as the halt above — lock holders unwind their
       critical sections first — but a paused thread keeps its cursor
       and resumes exactly here when {!thaw} runs after migration. *)
    thread.Thread.status <- Thread.Paused;
    thread.Thread.resume <- Thread.R_fetch;
    rotate_or_halt t vc
  end
  else
  let cursor = thread.Thread.cursor in
  let overhead = t.params.instr_overhead in
  match Program.next cursor ~rng:thread.Thread.rng with
  | Program.I_end -> round_complete t vc thread
  | Program.I_compute ->
    start_work t vc thread ~cycles:(Program.operand cursor)
      ~next:Thread.R_fetch ~arg:0
  | Program.I_lock ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_acquire
      ~arg:(Program.operand cursor)
  | Program.I_unlock ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_unlock
      ~arg:(Program.operand cursor)
  | Program.I_sem_wait ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_sem_wait
      ~arg:(Program.operand cursor)
  | Program.I_sem_post ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_sem_post
      ~arg:(Program.operand cursor)
  | Program.I_barrier ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_barrier_arrive
      ~arg:(Program.operand cursor)
  | Program.I_mark ->
    thread.Thread.marks <- thread.Thread.marks + 1;
    start_work t vc thread ~cycles:1 ~next:Thread.R_fetch ~arg:0
  | Program.I_sleep ->
    start_work t vc thread ~cycles:overhead ~next:Thread.R_sleep
      ~arg:(Program.operand cursor)

and start_work t vc (thread : Thread.t) ~cycles ~next ~arg =
  thread.Thread.pending_compute <- cycles;
  thread.Thread.resume <- next;
  thread.Thread.resume_arg <- arg;
  continue_thread t vc thread

and round_complete t vc (thread : Thread.t) =
  thread.Thread.rounds <- thread.Thread.rounds + 1;
  let duration = now t - thread.Thread.round_started in
  t.round_hook thread ~round:thread.Thread.rounds ~duration;
  if thread.Thread.restart && Program.static_instr_count thread.Thread.program > 0
  then begin
    Program.reset thread.Thread.cursor;
    thread.Thread.round_started <- now t;
    fetch t vc thread
  end
  else begin
    thread.Thread.status <- Thread.Finished;
    t.finished_hook thread;
    rotate_or_halt t vc
  end

(* Acquire [lock]; on ownership, run [cs] cycles then [next]. *)
and acquire_lock t vc (thread : Thread.t) lock ~cs ~next ~arg =
  if Spinlock.try_acquire lock thread ~now:(now t) then begin
    thread.Thread.locks_held <- thread.Thread.locks_held + 1;
    Monitor.record_spin_wait t.monitor ~vcpu:(-1) ~holder:(-1)
      ~lock_id:(Spinlock.id lock) ~wait:0;
    start_work t vc thread ~cycles:cs ~next ~arg
  end
  else begin
    (* Capture who holds the lock as the wait begins: with fixed
       thread affinity this VCPU is the holder for the whole wait, so
       the monitor can attribute an over-threshold wait to holder
       preemption (or not) when it ends. *)
    thread.Thread.spin_holder <-
      (match Spinlock.owner lock with
      | Some o -> vcpu_id_of t o
      | None -> -1);
    Spinlock.enqueue_waiter lock thread ~now:(now t);
    thread.Thread.status <- Thread.Spinning (Spinlock.id lock);
    thread.Thread.spin_request <- now t;
    thread.Thread.pending_compute <- cs;
    thread.Thread.resume <- next;
    thread.Thread.resume_arg <- arg;
    arm_ple t thread;
    (* The lock may be free but reserved, or held: either way we spin.
       If it is free and unreserved (released while we were enqueuing
       is impossible in one engine instant, but a free lock with only
       offline waiters is), start a handoff now. *)
    handoff_check t lock
  end

(* If the lock is free and some waiter is online, start a handoff. The
   waiter predicate is built only when there is a waiter to test: an
   uncontended release allocates nothing. *)
and handoff_check t lock =
  if Spinlock.waiter_count lock > 0 then handoff_scan t lock

and handoff_scan t lock =
  let online (waiter : Thread.t) =
    (match waiter.Thread.status with
    | Thread.Spinning id -> id = Spinlock.id lock
    | Thread.Runnable | Thread.Spin_barrier _ | Thread.Blocked_barrier _
    | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
    | Thread.Finished ->
      false)
    && occupying t waiter
  in
  match Spinlock.pick_online_waiter lock ~online with
  | None -> ()
  | Some waiter ->
    Spinlock.reserve_for lock waiter;
    schedule_untracked t ~delay:t.params.handoff (fun () ->
        untracked_fired t;
        grant t lock waiter)

(* Complete (or abort) an in-flight handoff. Self-validating: the
   grantee may have been preempted during the handoff latency. *)
and grant t lock (waiter : Thread.t) =
  let still_spinning =
    match waiter.Thread.status with
    | Thread.Spinning id -> id = Spinlock.id lock
    | Thread.Runnable | Thread.Spin_barrier _ | Thread.Blocked_barrier _
    | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
    | Thread.Finished ->
      false
  in
  if still_spinning && occupying t waiter then begin
    let wait = Spinlock.complete_grant lock waiter ~now:(now t) in
    waiter.Thread.total_spin_cycles <- waiter.Thread.total_spin_cycles + wait;
    waiter.Thread.locks_held <- waiter.Thread.locks_held + 1;
    waiter.Thread.status <- Thread.Runnable;
    Monitor.record_spin_wait t.monitor ~vcpu:(vcpu_id_of t waiter)
      ~holder:waiter.Thread.spin_holder ~lock_id:(Spinlock.id lock) ~wait;
    waiter.Thread.spin_holder <- -1;
    continue_thread t (vctx_of t waiter) waiter
  end
  else begin
    Spinlock.abort_grant lock waiter;
    handoff_check t lock
  end

(* The last arrival bumped the generation: release online spinners
   after the flag-observation latency; sleeping (futex-blocked)
   waiters are woken through the kernel wake path; offline spinners
   will notice when their VCPU is next scheduled. *)
and release_barrier t barrier =
  List.iter
    (fun (thread : Thread.t) ->
      match thread.Thread.status with
      | Thread.Spin_barrier (bid, gen)
        when bid = Barrier.id barrier && Barrier.passed barrier ~gen ->
        if occupying t thread then
          schedule_untracked t ~delay:t.params.flag_latency (fun () ->
              untracked_fired t;
              barrier_proceed t barrier thread)
      | Thread.Blocked_barrier (bid, gen)
        when bid = Barrier.id barrier && Barrier.passed barrier ~gen ->
        thread.Thread.status <- Thread.Runnable;
        thread.Thread.resume <- Thread.R_barrier_exit;
        thread.Thread.resume_arg <- bid;
        thread.Thread.pending_compute <-
          t.params.flag_latency + t.params.instr_overhead;
        wake_thread t thread
      | Thread.Spin_barrier _ | Thread.Blocked_barrier _ | Thread.Runnable
      | Thread.Spinning _ | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
      | Thread.Finished ->
        ())
    t.threads_rev

(* Self-validating barrier-exit event for online spinners. The wait
   itself is measured and reported at [R_barrier_exit]: barrier waits
   are busy-wait kernel synchronization wall time, the dominant source
   of over-threshold waits once sibling VCPUs are de-synchronized. *)
and barrier_proceed t barrier (thread : Thread.t) =
  match thread.Thread.status with
  | Thread.Spin_barrier (bid, gen)
    when bid = Barrier.id barrier && Barrier.passed barrier ~gen
         && occupying t thread ->
    thread.Thread.status <- Thread.Runnable;
    thread.Thread.resume <- Thread.R_barrier_exit;
    thread.Thread.resume_arg <- bid;
    thread.Thread.pending_compute <- 0;
    continue_thread t (vctx_of t thread) thread
  | Thread.Spin_barrier _ | Thread.Blocked_barrier _ | Thread.Runnable
  | Thread.Spinning _ | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
  | Thread.Finished ->
    ()

(* Hardware pause-loop detection: while a thread busy-spins through a
   whole PLE window on an online VCPU, the (modelled) processor raises
   a pause-loop exit to the VMM — the signal the out-of-VM ASMan
   variant consumes. Self-validating and re-arming: one exit per
   window for as long as the same spin span persists. *)
and arm_ple t (thread : Thread.t) =
  if t.params.ple_window > 0 then begin
    let span = thread.Thread.spin_request in
    schedule_untracked t ~delay:t.params.ple_window (fun () ->
        untracked_fired t;
        let still_spinning =
          match thread.Thread.status with
          | Thread.Spinning _ | Thread.Spin_barrier _ ->
            thread.Thread.spin_request = span
          | Thread.Runnable | Thread.Blocked_barrier _
          | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
          | Thread.Finished ->
            false
        in
        if still_spinning && occupying t thread then begin
          let vc = vctx_of t thread in
          Sim_vmm.Vmm.pause_loop_exit t.vmm vc.vcpu;
          arm_ple t thread
        end)
  end

(* Spin-then-block: if the barrier flag has not flipped when the grace
   budget expires, the thread futex-sleeps and frees its VCPU. *)
and arm_spin_grace t (thread : Thread.t) barrier_id gen =
  schedule_untracked t ~delay:t.params.spin_grace (fun () ->
      untracked_fired t;
      match thread.Thread.status with
      | Thread.Spin_barrier (bid, g)
        when bid = barrier_id && g = gen && occupying t thread ->
        let barrier = get_barrier t bid in
        if not (Barrier.passed barrier ~gen:g) then begin
          thread.Thread.status <- Thread.Blocked_barrier (bid, g);
          rotate_or_halt t (vctx_of t thread)
        end
      | Thread.Spin_barrier _ | Thread.Blocked_barrier _ | Thread.Runnable
      | Thread.Spinning _ | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
      | Thread.Finished ->
        ())

(* A blocked thread became runnable (semaphore token or launch). *)
and wake_thread t (thread : Thread.t) =
  let vc = vctx_of t thread in
  if vc.online then begin
    match Gsched.active vc.gsched with
    | None ->
      Gsched.set_active vc.gsched thread.Thread.some;
      resume_active t vc
    | Some _ -> () (* picked up at the next rotation/dispatch *)
  end
  else Sim_vmm.Vmm.vcpu_wake t.vmm vc.vcpu

(* The active thread can no longer execute: pick another, or halt the
   VCPU if none can. *)
and rotate_or_halt t vc =
  Engine.disarm t.engine vc.compute;
  Gsched.set_active vc.gsched None;
  match Gsched.pick vc.gsched with
  | Some _ as next ->
    Gsched.set_active vc.gsched next;
    resume_active t vc
  | None -> halt_vcpu t vc

and halt_vcpu t vc =
  Engine.disarm t.engine vc.compute;
  Engine.disarm t.engine vc.slice;
  vc.online <- false;
  (* The VMM does not call on_preempted for guest-initiated blocks. *)
  Sim_vmm.Vmm.vcpu_block t.vmm vc.vcpu

(* Resume the active thread according to its status. *)
and resume_active t vc =
  match Gsched.active vc.gsched with
  | None -> ()
  | Some thread -> begin
    match thread.Thread.status with
    | Thread.Runnable -> continue_thread t vc thread
    | Thread.Spinning lock_id ->
      arm_ple t thread;
      handoff_check t (ensure_lock t lock_id)
    | Thread.Spin_barrier (bid, gen) ->
      let barrier = get_barrier t bid in
      if Barrier.passed barrier ~gen then
        schedule_untracked t ~delay:t.params.flag_latency (fun () ->
            untracked_fired t;
            barrier_proceed t barrier thread)
      else begin
        arm_spin_grace t thread bid gen;
        arm_ple t thread
      end
    | Thread.Blocked_barrier _ | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
    | Thread.Finished ->
      rotate_or_halt t vc
  end

(* ----- timeslice rotation ----- *)

let rec arm_slice t vc =
  Engine.disarm t.engine vc.slice;
  if Gsched.thread_count vc.gsched > 1 then
    Engine.arm t.engine vc.slice ~delay:(Gsched.timeslice vc.gsched)

(* [vc.slice]'s action. *)
and slice_end t vc () =
  if vc.online then begin
    (match Gsched.active vc.gsched with
    | Some active
      when Thread.is_preemptible_by_guest active
           && Gsched.executable_count vc.gsched > 1 -> begin
      (* Save the active thread's progress and rotate. *)
      Engine.disarm t.engine vc.compute;
      if thread_mid_compute active then
        active.Thread.pending_compute <-
          Int.max 0
            (active.Thread.pending_compute
            - (now t - active.Thread.compute_started));
      match Gsched.pick vc.gsched with
      | Some next as picked when next != active ->
        Gsched.set_active vc.gsched picked;
        resume_active t vc
      | Some _ | None -> resume_active t vc
    end
    | Some _ | None -> ());
    arm_slice t vc
  end

and thread_mid_compute (thread : Thread.t) =
  (match thread.Thread.status with
  | Thread.Runnable -> true
  | Thread.Spinning _ | Thread.Spin_barrier _ | Thread.Blocked_barrier _
  | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
  | Thread.Finished ->
    false)
  && thread.Thread.pending_compute > 0

(* ----- VCPU hooks ----- *)

let on_scheduled t vc () =
  vc.online <- true;
  (match Gsched.active vc.gsched with
  | Some active when Thread.is_executable active -> resume_active t vc
  | Some _ | None -> begin
    match Gsched.pick vc.gsched with
    | Some _ as next ->
      Gsched.set_active vc.gsched next;
      resume_active t vc
    | None -> halt_vcpu t vc
  end);
  if vc.online then arm_slice t vc

let on_preempted t vc () =
  vc.online <- false;
  Engine.disarm t.engine vc.slice;
  if Engine.armed t.engine vc.compute then begin
    Engine.disarm t.engine vc.compute;
    match Gsched.active vc.gsched with
    | Some active when thread_mid_compute active ->
      active.Thread.pending_compute <-
        Int.max 0
          (active.Thread.pending_compute
          - (now t - active.Thread.compute_started))
    | Some _ | None -> ()
  end

(* ----- construction ----- *)

(* Bind the VCPU's two timers on the kernel's current engine. *)
let bind_timers t vc =
  vc.compute <- Engine.timer t.engine (compute_done t vc);
  vc.slice <- Engine.timer t.engine (slice_end t vc)

let free_timers t vc =
  Engine.free_timer t.engine vc.compute;
  Engine.free_timer t.engine vc.slice;
  vc.compute <- Engine.no_timer;
  vc.slice <- Engine.no_timer

let create ?params:params_opt vmm domain () =
  let cpu = Sim_vmm.Vmm.cpu_model vmm in
  let params =
    match params_opt with Some p -> p | None -> default_params cpu
  in
  let engine = Sim_vmm.Vmm.engine vmm in
  let rng = Rng.split (Engine.rng engine) in
  let hypercall = Sim_vmm.Hypercall.create vmm in
  let monitor =
    Monitor.create params.monitor ~engine ~hypercall ~domain
      ~rng:(Rng.split rng)
  in
  let t =
    {
      vmm;
      domain;
      engine;
      params;
      hypercall;
      monitor;
      rng;
      locks = Id_table.create 16;
      sems = Id_table.create 8;
      barriers = Id_table.create 8;
      vcpus =
        Array.map
          (fun vcpu ->
            {
              vcpu;
              gsched = Gsched.create ~timeslice:params.timeslice;
              online = false;
              compute = Engine.no_timer;
              slice = Engine.no_timer;
            })
          domain.Sim_vmm.Domain.vcpus;
      threads_rev = [];
      next_thread_id = 0;
      round_hook = (fun _ ~round:_ ~duration:_ -> ());
      finished_hook = (fun _ -> ());
      launched = false;
      halted = false;
      frozen = false;
      pending_untracked = 0;
    }
  in
  Array.iter
    (fun vc ->
      bind_timers t vc;
      Sim_vmm.Vcpu.set_hooks vc.vcpu
        {
          Sim_vmm.Vcpu.on_scheduled = on_scheduled t vc;
          on_preempted = on_preempted t vc;
        })
    t.vcpus;
  t

let add_thread t ?(restart = false) ~affinity program =
  if t.launched then failwith "Kernel.add_thread: kernel already launched";
  List.iter
    (fun id ->
      if not (Id_table.mem t.sems id) then
        invalid_arg (Printf.sprintf "Kernel.add_thread: undeclared semaphore %d" id))
    (Program.semaphores_referenced program);
  List.iter
    (fun id ->
      if not (Id_table.mem t.barriers id) then
        invalid_arg (Printf.sprintf "Kernel.add_thread: undeclared barrier %d" id))
    (Program.barriers_referenced program);
  let id = t.next_thread_id in
  t.next_thread_id <- t.next_thread_id + 1;
  let affinity = affinity mod Array.length t.vcpus in
  let thread =
    Thread.make ~id ~affinity ~restart ~rng:(Rng.split t.rng) program
  in
  t.threads_rev <- thread :: t.threads_rev;
  Gsched.add t.vcpus.(affinity).gsched thread;
  thread

(* ----- decoupled-VMM domain migration ----- *)

(* The kernel-side quiescence gate: no VCPU online (every per-VCPU
   compute/slice timer is disarmed on preemption and halt, so a
   fully-offline domain holds none armed) and no untracked timer in
   flight. Only then does the kernel own zero events on the current
   engine and the domain may leave this host. *)
let quiescent t =
  t.pending_untracked = 0
  && Array.for_all
       (fun vc ->
         (not vc.online)
         && (not (Engine.armed t.engine vc.compute))
         && not (Engine.armed t.engine vc.slice))
       t.vcpus

(* Domain migration is a two-phase handoff. [park] runs on the source
   host (inside the grant decision): it verifies quiescence and frees
   the VCPU timers and the monitor's window timer — source-engine
   slab mutations only the source side may perform. [retarget] runs
   on the destination host one fabric window later: it binds fresh
   timers on the destination engine, and every closure the kernel
   will schedule from here on reads [t.engine]/[t.vmm] through [t],
   so the swap is complete and the VCPU hooks installed at creation
   remain valid. *)
(* Ask the guest to drain: every thread retires at its next
   instruction boundary (lock holders first unwind their critical
   sections, spinners fall back to futex sleeps via the usual grace
   path), after which all VCPUs halt and the pending untracked timers
   fire out — the domain converges to {!quiescent} without outside
   help.  Idempotent; callers poll [quiescent] to learn when the
   drain has landed. *)
let request_halt t = t.halted <- true
let halt_requested t = t.halted

(* Reversible sibling of [request_halt] for stop-and-copy migration:
   the guest drains to {!quiescent} with every thread [Paused] (or in
   a wait that the drain leaves intact), ready to be parked, shipped
   and resumed.  [thaw] runs on the destination after [retarget] +
   [Vmm.attach_domain]; it wakes each paused thread, which refetches
   from the cursor it froze at — no guest progress is lost. *)
let request_freeze t = t.frozen <- true
let freeze_requested t = t.frozen

let thaw t =
  t.frozen <- false;
  List.iter
    (fun (th : Thread.t) ->
      if th.Thread.status = Thread.Paused then begin
        th.Thread.status <- Thread.Runnable;
        wake_thread t th
      end)
    (List.rev t.threads_rev)

let park t =
  if not (quiescent t) then failwith "Kernel.park: kernel not quiescent";
  Array.iter (free_timers t) t.vcpus;
  Monitor.park t.monitor

let retarget t ~vmm =
  t.vmm <- vmm;
  t.engine <- Sim_vmm.Vmm.engine vmm;
  Array.iter (bind_timers t) t.vcpus;
  if not (quiescent t) then failwith "Kernel.retarget: kernel not quiescent";
  Sim_vmm.Hypercall.retarget t.hypercall ~vmm;
  Monitor.retarget t.monitor ~engine:t.engine

let set_round_hook t hook = t.round_hook <- hook

let set_finished_hook t hook = t.finished_hook <- hook

let launched t = t.launched

let launch t =
  if t.launched then failwith "Kernel.launch: already launched";
  t.launched <- true;
  let start = now t in
  List.iter (fun (th : Thread.t) -> th.Thread.round_started <- start) t.threads_rev;
  Array.iter
    (fun vc ->
      if Gsched.executable_count vc.gsched > 0 then
        Sim_vmm.Vmm.vcpu_wake t.vmm vc.vcpu)
    t.vcpus

let min_rounds t =
  match t.threads_rev with
  | [] -> 0
  | threads ->
    List.fold_left
      (fun acc (th : Thread.t) -> Int.min acc th.Thread.rounds)
      max_int threads

let total_marks t =
  List.fold_left (fun acc (th : Thread.t) -> acc + th.Thread.marks) 0 t.threads_rev

let reset_marks t =
  List.iter (fun (th : Thread.t) -> th.Thread.marks <- 0) t.threads_rev

let all_finished t =
  t.threads_rev <> []
  && List.for_all
       (fun (th : Thread.t) -> th.Thread.status = Thread.Finished)
       t.threads_rev

let total_spin_cycles t =
  List.fold_left
    (fun acc (th : Thread.t) -> acc + th.Thread.total_spin_cycles)
    0 t.threads_rev
