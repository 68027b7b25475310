(* One compilation unit for the guest, submodules in dependency order;
   sim_guest.mli seals each one. Kernel reaches into Spinlock's waiter
   list directly (see [Kernel.online_waiter]). *)

module Program = struct
  type op =
    | Compute of int
    | Compute_rand of { mean : int; cv : float }
    | Lock of int
    | Unlock of int
    | Sem_wait of int
    | Sem_post of int
    | Barrier of int
    | Mark
    | Sleep of int
    | Repeat of int * op list

  type instr =
    | I_compute
    | I_lock
    | I_unlock
    | I_sem_wait
    | I_sem_post
    | I_barrier
    | I_mark
    | I_sleep
    | I_end

  (* The op tree compiled once into flat code: one entry per
     instruction, plus a [C_loop]/[C_back] pair around each [Repeat]
     body. A loop that would emit nothing ([Repeat (0, _)], an empty
     body, or a body of such loops) compiles to no code at all: it draws
     nothing from the RNG either, so skipping it changes no stream. *)
  type code =
    | C_compute  (** arg: cycles *)
    | C_compute_rand  (** arg: its index in [chunks] *)
    | C_lock
    | C_unlock
    | C_sem_wait
    | C_sem_post
    | C_barrier
    | C_mark
    | C_sleep
    | C_loop  (** arg: loop index, arg2: iteration count *)
    | C_back  (** arg: loop index, arg2: the body's first pc *)
    | C_end

  type t = {
    ops : op list;
    code : code array;
    arg : int array;
    arg2 : int array;
    chunks : Sim_engine.Rng.lognormal array;  (** per [Compute_rand] *)
    loops : int;  (** loop counters a cursor needs *)
  }

  let rec validate ops =
    List.iter
      (fun op ->
        match op with
        | Compute n -> if n < 0 then invalid_arg "Program: negative compute"
        | Compute_rand { mean; cv } ->
          if mean <= 0 then invalid_arg "Program: non-positive compute mean";
          if cv < 0. then invalid_arg "Program: negative cv"
        | Sleep n -> if n <= 0 then invalid_arg "Program: non-positive sleep"
        | Repeat (n, body) ->
          if n < 0 then invalid_arg "Program: negative repeat count";
          validate body
        | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark -> ())
      ops

  (* Code entries [ops] compiles to. *)
  let rec code_size ops =
    List.fold_left
      (fun acc op ->
        match op with
        | Repeat (n, body) ->
          let body = if n = 0 then 0 else code_size body in
          if body = 0 then acc else acc + body + 2
        | Compute _ | Compute_rand _ | Lock _ | Unlock _ | Sem_wait _ | Sem_post _
        | Barrier _ | Mark | Sleep _ ->
          acc + 1)
      0 ops

  let compile ops =
    let size = code_size ops + 1 in
    let code = Array.make size C_end in
    let arg = Array.make size 0 in
    let arg2 = Array.make size 0 in
    let chunks = ref [] and nchunks = ref 0 in
    let pc = ref 0 and loops = ref 0 in
    let emit c a =
      code.(!pc) <- c;
      arg.(!pc) <- a;
      incr pc
    in
    let rec go ops =
      List.iter
        (fun op ->
          match op with
          | Compute n -> emit C_compute n
          | Compute_rand { mean; cv } ->
            let mean = float_of_int mean in
            chunks := Sim_engine.Rng.lognormal_params ~mean ~cv :: !chunks;
            emit C_compute_rand !nchunks;
            incr nchunks
          | Lock id -> emit C_lock id
          | Unlock id -> emit C_unlock id
          | Sem_wait id -> emit C_sem_wait id
          | Sem_post id -> emit C_sem_post id
          | Barrier id -> emit C_barrier id
          | Mark -> emit C_mark 0
          | Sleep n -> emit C_sleep n
          | Repeat (n, body) ->
            if n > 0 && code_size body > 0 then begin
              let k = !loops in
              incr loops;
              arg2.(!pc) <- n;
              emit C_loop k;
              let start = !pc in
              go body;
              arg2.(!pc) <- start;
              emit C_back k
            end)
        ops
    in
    go ops;
    {
      ops;
      code;
      arg;
      arg2;
      chunks = Array.of_list (List.rev !chunks);
      loops = !loops;
    }

  let make ops =
    validate ops;
    compile ops

  let ops t = t.ops

  let rec count_ops ops =
    List.fold_left
      (fun acc op ->
        match op with
        | Repeat (n, body) -> acc + (n * count_ops body)
        | Compute _ | Compute_rand _ | Lock _ | Unlock _ | Sem_wait _ | Sem_post _
        | Barrier _ | Mark | Sleep _ ->
          acc + 1)
      0 ops

  let static_instr_count t = count_ops t.ops

  let rec compute_cycles ops =
    List.fold_left
      (fun acc op ->
        match op with
        | Compute n -> acc + n
        | Compute_rand { mean; _ } -> acc + mean
        | Repeat (n, body) -> acc + (n * compute_cycles body)
        | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark
        | Sleep _ ->
          acc)
      0 ops

  let total_compute_cycles t = compute_cycles t.ops

  (* A cursor is a position in the shared code plus one iteration
     counter per loop: the iterations left after the current one. *)
  type cursor = {
    program : t;
    mutable pc : int;
    counters : int array;
    mutable operand : int;  (** of the instruction [next] last returned *)
  }

  let cursor program =
    { program; pc = 0; counters = Array.make program.loops 0; operand = 0 }

  let reset c = c.pc <- 0

  let operand c = c.operand

  (* The opcode is a constant constructor and the operand goes to a
     cursor field, so handing out an instruction allocates nothing. *)
  let[@inline] emit c pc instr operand =
    c.pc <- pc + 1;
    c.operand <- operand;
    instr

  let rec next c ~rng =
    let p = c.program in
    let pc = c.pc in
    let arg = p.arg.(pc) in
    match p.code.(pc) with
    | C_compute -> emit c pc I_compute arg
    | C_compute_rand ->
      emit c pc I_compute (Sim_engine.Rng.lognormal_int rng p.chunks.(arg))
    | C_lock -> emit c pc I_lock arg
    | C_unlock -> emit c pc I_unlock arg
    | C_sem_wait -> emit c pc I_sem_wait arg
    | C_sem_post -> emit c pc I_sem_post arg
    | C_barrier -> emit c pc I_barrier arg
    | C_mark -> emit c pc I_mark 0
    | C_sleep -> emit c pc I_sleep arg
    | C_loop ->
      c.counters.(arg) <- p.arg2.(pc) - 1;
      c.pc <- pc + 1;
      next c ~rng
    | C_back ->
      let left = c.counters.(arg) in
      if left > 0 then begin
        c.counters.(arg) <- left - 1;
        c.pc <- p.arg2.(pc)
      end
      else c.pc <- pc + 1;
      next c ~rng
    | C_end ->
      c.operand <- 0;
      I_end

  let referenced ~f t =
    let rec collect acc ops =
      List.fold_left
        (fun acc op ->
          match f op with
          | Some id -> id :: acc
          | None -> ( match op with Repeat (_, body) -> collect acc body | _ -> acc))
        acc ops
    in
    List.sort_uniq compare (collect [] t.ops)

  let locks_referenced t =
    referenced t ~f:(function Lock id | Unlock id -> Some id | _ -> None)

  let barriers_referenced t =
    referenced t ~f:(function Barrier id -> Some id | _ -> None)

  let semaphores_referenced t =
    referenced t ~f:(function Sem_wait id | Sem_post id -> Some id | _ -> None)
end

module Thread = struct
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
end

module Gsched = struct
  type t = {
    timeslice : int;
    mutable threads : Thread.t list;  (** in add order *)
    mutable active : Thread.t option;
  }

  let create ~timeslice =
    if timeslice <= 0 then invalid_arg "Gsched.create: timeslice must be positive";
    { timeslice; threads = []; active = None }

  let timeslice t = t.timeslice

  let add t thread =
    if List.exists (fun th -> th == thread) t.threads then
      invalid_arg "Gsched.add: thread already registered";
    t.threads <- t.threads @ [ thread ]

  let threads t = t.threads

  let thread_count t = List.length t.threads

  let active t = t.active

  let set_active t thread = t.active <- thread

  (* The scans below return the thread's prebuilt [some] and recurse
     directly, so a pick allocates nothing. *)
  let rec first_executable = function
    | [] -> None
    | (th : Thread.t) :: rest ->
      if Thread.is_executable th then th.Thread.some else first_executable rest

  (* First executable thread strictly after [cur] in list order. *)
  let rec executable_after cur = function
    | [] -> None
    | th :: rest ->
      if th == cur then first_executable rest else executable_after cur rest

  (* First executable thread strictly before [cur] in list order. *)
  let rec executable_before cur = function
    | [] -> None
    | (th : Thread.t) :: rest ->
      if th == cur then None
      else if Thread.is_executable th then th.Thread.some
      else executable_before cur rest

  let pick t =
    match first_executable t.threads with
    | None -> None
    | Some _ as first -> begin
      match t.active with
      | None -> first
      | Some cur -> begin
        (* Round-robin: first executable thread strictly after [cur] in
           list order, wrapping around. *)
        match executable_after cur t.threads with
        | Some _ as next -> next
        | None -> begin
          match executable_before cur t.threads with
          | Some _ as next -> next
          | None -> if Thread.is_executable cur then cur.Thread.some else first
        end
      end
    end

  let rec count_executable n = function
    | [] -> n
    | th :: rest ->
      count_executable (if Thread.is_executable th then n + 1 else n) rest

  let executable_count t = count_executable 0 t.threads
end

module Spinlock = struct
  type t = {
    lock_id : int;
    mutable owner : Thread.t option;
    mutable waiters : (Thread.t * int) list;  (** request order, oldest first *)
    mutable reserved_for : Thread.t option;
    mutable acquisitions : int;
    mutable contended : int;
  }

  let create ~id =
    {
      lock_id = id;
      owner = None;
      waiters = [];
      reserved_for = None;
      acquisitions = 0;
      contended = 0;
    }

  let id t = t.lock_id

  let owner t = t.owner

  let is_reserved t = match t.reserved_for with Some _ -> true | None -> false

  (* The waiter-list scans recurse directly: a predicate closure over
     [thread] would be allocated on every acquire, handoff and grant. *)
  let rec waits_in thread = function
    | [] -> false
    | (w, _) :: rest -> w == thread || waits_in thread rest

  let is_waiter t thread = waits_in thread t.waiters

  (* Free and no handoff in flight. *)
  let[@inline] grantable t =
    match (t.owner, t.reserved_for) with
    | None, None -> true
    | Some _, _ | _, Some _ -> false

  let try_acquire t thread ~now =
    ignore now;
    grantable t
    && begin
      t.owner <- thread.Thread.some;
      t.acquisitions <- t.acquisitions + 1;
      true
    end

  let enqueue_waiter t thread ~now =
    (match t.owner with
    | Some o when o == thread -> invalid_arg "Spinlock: owner cannot wait"
    | Some _ | None -> ());
    if is_waiter t thread then invalid_arg "Spinlock: thread already waiting";
    t.waiters <- t.waiters @ [ (thread, now) ]

  let rec since_in thread = function
    | [] -> raise Not_found
    | (w, since) :: rest -> if w == thread then since else since_in thread rest

  let waiting_since t thread =
    match since_in thread t.waiters with
    | since -> Some since
    | exception Not_found -> None

  (* Waiters are distinct ({!enqueue_waiter} refuses a second entry), so
     dropping the first match drops every match. *)
  let rec remove_waiter thread = function
    | [] -> []
    | ((w, _) as entry) :: rest ->
      if w == thread then rest else entry :: remove_waiter thread rest

  let rec first_online online = function
    | [] -> None
    | ((w : Thread.t), _) :: rest ->
      if online w then w.Thread.some else first_online online rest

  let release t thread =
    match t.owner with
    | Some o when o == thread -> t.owner <- None
    | Some _ | None -> invalid_arg "Spinlock.release: thread is not the owner"

  let pick_online_waiter t ~online =
    if grantable t then first_online online t.waiters else None

  let reserve_for t thread =
    (match t.owner with
    | Some _ -> invalid_arg "Spinlock.reserve_for: lock is held"
    | None -> ());
    if is_reserved t then invalid_arg "Spinlock.reserve_for: already reserved";
    if not (is_waiter t thread) then
      invalid_arg "Spinlock.reserve_for: thread is not a waiter";
    t.reserved_for <- thread.Thread.some

  let complete_grant t thread ~now =
    (match t.reserved_for with
    | Some r when r == thread -> ()
    | Some _ | None -> invalid_arg "Spinlock.complete_grant: no reservation");
    let since =
      match since_in thread t.waiters with
      | s -> s
      | exception Not_found ->
        invalid_arg "Spinlock.complete_grant: thread is not a waiter"
    in
    t.waiters <- remove_waiter thread t.waiters;
    t.reserved_for <- None;
    t.owner <- thread.Thread.some;
    t.acquisitions <- t.acquisitions + 1;
    t.contended <- t.contended + 1;
    now - since

  let abort_grant t thread =
    match t.reserved_for with
    | Some r when r == thread -> t.reserved_for <- None
    | Some _ | None -> invalid_arg "Spinlock.abort_grant: no matching reservation"

  let waiter_count t = List.length t.waiters

  let acquisitions t = t.acquisitions

  let contended_acquisitions t = t.contended
end

module Semaphore = struct
  type t = {
    sem_id : int;
    mutable count : int;
    mutable waiters : (Thread.t * int) list;
    mutable waits : int;
    mutable blocked : int;
  }

  let create ~id ~init =
    if init < 0 then invalid_arg "Semaphore.create: negative count";
    { sem_id = id; count = init; waiters = []; waits = 0; blocked = 0 }

  let id t = t.sem_id

  let count t = t.count

  let try_wait t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      t.waits <- t.waits + 1;
      true
    end
    else false

  let enqueue_waiter t thread ~now =
    if List.exists (fun (w, _) -> w == thread) t.waiters then
      invalid_arg "Semaphore.enqueue_waiter: already waiting";
    t.waiters <- t.waiters @ [ (thread, now) ];
    t.blocked <- t.blocked + 1

  let post t =
    match t.waiters with
    | [] ->
      t.count <- t.count + 1;
      None
    | (w, since) :: rest ->
      t.waiters <- rest;
      t.waits <- t.waits + 1;
      Some (w, since)

  let waiter_count t = List.length t.waiters

  let waits t = t.waits

  let blocked_waits t = t.blocked
end

module Barrier = struct
  type t = {
    barrier_id : int;
    parties : int;
    lock : Spinlock.t;
    mutable count : int;
    mutable generation : int;
    mutable first_arrival : int;
    mutable crossings : int;
    mutable longest : int;
  }

  let create ~id ~parties =
    if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
    {
      barrier_id = id;
      parties;
      (* The internal lock shares the barrier's id space; the kernel
         allocates distinct ids for it. *)
      lock = Spinlock.create ~id:(-(id + 1));
      count = 0;
      generation = 0;
      first_arrival = 0;
      crossings = 0;
      longest = 0;
    }

  let id t = t.barrier_id

  let parties t = t.parties

  let lock t = t.lock

  let generation t = t.generation

  let arrive t ~now =
    if t.count = 0 then t.first_arrival <- now;
    t.count <- t.count + 1;
    if t.count >= t.parties then begin
      t.count <- 0;
      t.generation <- t.generation + 1;
      t.crossings <- t.crossings + 1;
      t.longest <- Int.max t.longest (now - t.first_arrival);
      `Last
    end
    else `Wait t.generation

  let passed t ~gen = t.generation > gen

  let crossings t = t.crossings

  let longest_episode t = t.longest
end

module Monitor = struct
  open Sim_engine

  type params = {
    delta_exp : int;
    trace_exp : int;
    report_vcrd : bool;
    estimator : Sim_learn.Estimator.params;
  }

  let default_params ~slot_cycles =
    {
      delta_exp = 20;
      trace_exp = 10;
      report_vcrd = true;
      estimator = Sim_learn.Estimator.default_params ~slot_cycles;
    }

  type trace_entry = { time : int; wait : int; lock_id : int }

  type t = {
    params : params;
    mutable engine : Engine.t;
    hypercall : Sim_vmm.Hypercall.t;
    domain : Sim_vmm.Domain.t;
    estimator : Sim_learn.Estimator.t;
    mutable spin_hist : Sim_stats.Histogram.t;
    mutable sem_hist : Sim_stats.Histogram.t;
    mutable on_traced : (trace_entry -> unit) option;
    mutable over_threshold : int;
    mutable adjusting_events : int;
    mutable window : Engine.timer;  (** the HIGH window's end check *)
    mutable window_budget : int;  (** online cycles left in the HIGH window *)
    mutable window_anchor : int;  (** domain online cycles at the last re-arm *)
    mutable parked : bool;  (** a HIGH window was cancelled by {!park} *)
  }

  let params t = t.params

  let threshold_cycles t = Units.pow2 t.params.delta_exp

  let set_vcrd t v =
    if t.params.report_vcrd then Sim_vmm.Hypercall.do_vcrd_op t.hypercall t.domain v

  let domain_online t =
    Sim_vmm.Vmm.domain_online_cycles
      (Sim_vmm.Hypercall.vmm t.hypercall)
      t.domain

  (* The HIGH window is metered in guest-consumed CPU time, not wall
     time: a capped VM may be entirely offline for long stretches during
     which no synchronization can occur, and a wall-clock window would
     silently expire there. The budget is [x * |C(V)|] online cycles —
     equivalent to [x] wall cycles when the whole gang is coscheduled.
     The timer re-arms until the budget is consumed. *)
  let rec arm_window t =
    let vcpus = Sim_vmm.Domain.vcpu_count t.domain in
    let min_delay = Units.pow2 20 in
    let delay = Int.max min_delay (t.window_budget / vcpus) in
    Engine.arm t.engine t.window ~delay

  (* [t.window]'s action. *)
  and window_check t () =
    let consumed = domain_online t - t.window_anchor in
    if consumed >= t.window_budget then set_vcrd t Sim_vmm.Domain.Low
    else begin
      t.window_anchor <- t.window_anchor + consumed;
      t.window_budget <- t.window_budget - consumed;
      arm_window t
    end

  let create params ~engine ~hypercall ~domain ~rng =
    let t =
      {
        params;
        engine;
        hypercall;
        domain;
        estimator = Sim_learn.Estimator.create params.estimator rng;
        spin_hist = Sim_stats.Histogram.create ();
        sem_hist = Sim_stats.Histogram.create ();
        on_traced = None;
        over_threshold = 0;
        adjusting_events = 0;
        window = Engine.no_timer;
        window_budget = 0;
        window_anchor = 0;
        parked = false;
      }
    in
    t.window <- Engine.timer engine (window_check t);
    t

  (* Domain migration is a two-phase handoff because the two engines
     run in different fabric windows, possibly on different OS threads:
     [park] executes on the source host (freeing [window], the
     monitor's only engine event, is a queue and slab mutation only the
     source side may perform), [retarget] on the destination one window
     later, where it binds a fresh timer.
     The budget and anchor are metered in guest online cycles, which
     are continuous across hosts, so a HIGH window survives the move
     intact (modulo the re-check landing [delay] after the attach
     instant instead of the original arm instant, part of the modeled
     stop-and-copy latency). *)
  let park t =
    t.parked <- Engine.armed t.engine t.window;
    Engine.free_timer t.engine t.window;
    t.window <- Engine.no_timer

  let retarget t ~engine =
    t.engine <- engine;
    t.window <- Engine.timer engine (window_check t);
    if t.parked then begin
      t.parked <- false;
      arm_window t
    end

  (* Algorithm 1: an over-threshold spinlock is an adjusting event.
     The estimator's clock is per-VCPU guest online time, not wall time:
     localities of synchronization are a property of the program, which
     makes progress only while the VM is online. Estimates and window
     budgets are therefore all in online cycles. *)
  let adjusting_event t =
    t.adjusting_events <- t.adjusting_events + 1;
    let online_now = domain_online t / Sim_vmm.Domain.vcpu_count t.domain in
    let x = Sim_learn.Estimator.on_adjusting_event t.estimator ~now:online_now in
    Engine.disarm t.engine t.window;
    set_vcrd t Sim_vmm.Domain.High;
    t.window_budget <- x * Sim_vmm.Domain.vcpu_count t.domain;
    t.window_anchor <- domain_online t;
    arm_window t

  let record_spin_wait t ~vcpu ~holder ~lock_id ~wait =
    Sim_stats.Histogram.add t.spin_hist wait;
    (match t.on_traced with
    | Some f when wait >= Units.pow2 t.params.trace_exp ->
      f { time = Engine.now t.engine; wait; lock_id }
    | Some _ | None -> ());
    if wait > threshold_cycles t then begin
      t.over_threshold <- t.over_threshold + 1;
      let tr = Engine.trace t.engine in
      if Sim_obs.Trace.on tr Sim_obs.Trace.Spin then
        Sim_obs.Trace.emit tr ~now:(Engine.now t.engine)
          (Sim_obs.Trace.Spin_overthreshold
             { domain = t.domain.Sim_vmm.Domain.id; vcpu; lock_id; wait;
               holder });
      adjusting_event t
    end

  let record_sem_wait t ~wait = Sim_stats.Histogram.add t.sem_hist wait

  let spin_histogram t = t.spin_hist

  let sem_histogram t = t.sem_hist

  let on_traced_wait t f = t.on_traced <- Some f

  let over_threshold_count t = t.over_threshold

  let adjusting_events t = t.adjusting_events

  let estimator t = t.estimator

  let reset_window t =
    t.spin_hist <- Sim_stats.Histogram.create ();
    t.sem_hist <- Sim_stats.Histogram.create ();
    t.over_threshold <- 0
end

module Kernel = struct
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

  (* The earliest-requesting waiter that still spins on lock [lock_id]
     and occupies its online VCPU: the one a free lock is handed to. It
     recurses over the waiter list in place; a predicate closure would
     be allocated on every release and every spin that starts. *)
  let rec online_waiter t lock_id = function
    | [] -> None
    | ((w : Thread.t), _) :: rest ->
      if
        (match w.Thread.status with
        | Thread.Spinning id -> id = lock_id
        | Thread.Runnable | Thread.Spin_barrier _ | Thread.Blocked_barrier _
        | Thread.Blocked_sem _ | Thread.Blocked_sleep | Thread.Paused
        | Thread.Finished ->
          false)
        && occupying t w
      then w.Thread.some
      else online_waiter t lock_id rest

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

  (* If the lock is free and unreserved and some waiter is online, start
     a handoff. *)
  and handoff_check t lock =
    if Spinlock.grantable lock then
      match online_waiter t lock.Spinlock.lock_id lock.Spinlock.waiters with
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
end
