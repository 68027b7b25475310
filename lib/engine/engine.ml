(* The discrete-event engine: clock, event slab, timing wheel, heap
   oracle and fire loop in one compilation unit.

   Every scheduled and fired event runs through the helpers below, so
   they live in the module that calls them: the dev profile compiles
   each module with -opaque, and a call across a module boundary is
   then never inlined and, with several arguments, goes through
   caml_applyN. Inside one unit the small helpers marked [@inline] are
   expanded into [schedule_at], [cancel] and the fire loop, and every
   other call is a direct one.

   Event slab. Every scheduled event occupies one integer slot whose
   time/seq/links live in flat int arrays and whose action lives in a
   parallel closure array. Slots are recycled through a free list on
   fire/cancel, so the steady-state hot path (schedule, fire, cancel)
   allocates nothing; the public handle is the slot index packed with
   a generation stamp that detects stale references to recycled
   slots.

   Timers. A one-shot event stores its closure into the slab when it
   is scheduled and [noop] over it when it fires or is cancelled: two
   [caml_modify] stores per event. A timer is a slot that keeps its
   action: [timer] binds the closure once, and [arm], [disarm] and the
   fire loop then write only the int arrays. A fired timer stays bound
   and idle, ready to be armed again. The recurring events (a VCPU's
   compute and slice timers, periodic clocks, the monitor's window)
   are timers; everything else is a one-shot.

   Wheel geometry (cycle-granularity virtual time):

     near heap: the cursor's open 2^16-cycle slot (~28 us @2.33GHz)
     level 1:  64 slots x 2^16 cycles   (window 2^22 ~ 1.8 ms)
     level 2:  64 slots x 2^22 cycles   (window 2^28 ~ 115 ms)
     level 3:  64 slots x 2^28 cycles   (window 2^34 ~ 7.4 s)
     beyond:  far-future slot-heap, pulled when the cursor enters
              its 2^34 window

   The cursor counts level-1 slots: the slot it sits on is "open", and
   every event in it, or behind it, lives in the "near" slot-heap,
   which restores exact (time, seq) order; so zero-delay and
   same-instant scheduling keep their FIFO semantics. A simulated host
   holds a few dozen pending events spread over milliseconds, so the
   near heap rarely holds more than a handful; there is no finer level
   below it to order what it would order anyway.

   Later events land in the lowest level whose current window contains
   them; when the cursor enters a bucket of a higher level, the bucket
   cascades down, and a level-1 bucket cascades into the near heap.
   Cancelled events are removed eagerly wherever they sit: a wheel
   bucket resident is unlinked in O(1) through the intrusive
   doubly-linked lists, and a slot-heap resident is taken out through
   the slab's per-slot heap position in O(log n). There are no
   tombstones, so a disarmed timer can be armed again in the same
   instant, and the firing order cannot depend on how a heap was
   shaped: (time, seq) is a total order.

   The cursor advance costs in proportion to occupied buckets, not to
   elapsed time. Each level keeps a one-bit-per-bucket occupancy
   bitmap, scanned a 32-bit word at a time with a de Bruijn
   lowest-set-bit lookup. When the near heap runs dry, the cursor
   jumps straight to the next occupied bucket of the lowest level that
   has one (1, then 2, then 3), so the empty slots between two sparse
   events cost one scan per level rather than one step per 2^16-cycle
   slot.

   Heap oracle. [Heap_queue] files every event into the near heap and
   never moves the cursor: a plain binary heap, the reference the
   wheel is differentially tested against. The two backends differ
   only in [insert]; both fire in exact (time, seq) order, so whole
   simulations are identical event for event. *)

type queue_kind = Wheel_queue | Heap_queue

let kind_name = function Wheel_queue -> "wheel" | Heap_queue -> "heap"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "wheel" -> Some Wheel_queue
  | "heap" -> Some Heap_queue
  | _ -> None

type handle = int

type timer = int

let no_timer = -1

let noop () = ()

(* Binary min-heap of slots, ordered by the slab's (time, seq) key:
   the near and far regions, and the whole queue under the oracle. *)
type heap = { mutable a : int array; mutable n : int }

type t = {
  mutable clock : int;
  kind : queue_kind;
  (* ----- event slab, one entry per slot ----- *)
  mutable time : int array;
  mutable seq : int array;
  (* bumped on every release, so packed handles detect recycled
     slots; stored complemented (negative) while the slot is a timer *)
  mutable gen : int array;
  (* the container holding the slot: a wheel bucket's (non-negative)
     index, or one of the [loc_*] tags below *)
  mutable loc : int array;
  (* the slot's index in the near or far heap, while it sits in one *)
  mutable pos : int array;
  (* intrusive bucket lists; [next] also threads the free list *)
  mutable next : int array;
  mutable prev : int array;
  mutable act : (unit -> unit) array;
  mutable free : int;
  mutable cap : int;
  (* the schedule-call counter: the FIFO tie-break at equal times *)
  mutable next_seq : int;
  (* live (scheduled - fired - cancelled) events *)
  mutable live : int;
  (* ----- wheel ----- *)
  heads : int array;
  tails : int array;
  (* occupancy bitmaps, one bit per bucket, 32 bits per word *)
  bits : int array;
  near : heap;
  far : heap;
  mutable in_wheel : int;
  (* Cursor in level-1 slot units: the slot it names, and every slot
     before it, has been opened, so events whose [time lsr 16] is at
     most [cur] go straight to the near heap. *)
  mutable cur : int;
  (* ----- run state ----- *)
  mutable stop : bool;
  mutable fired_count : int;
  (* Order-sensitive rolling hash of fire times: the per-member stream
     fingerprint the decoupled fabric's worker-count-invariance gate
     reads. One multiply-add per fired event. *)
  mutable stream_fp : int;
  root_rng : Rng.t;
  trace : Sim_obs.Trace.t;
}

let loc_free = -1
let loc_near = -2 (* in the near slot-heap *)
let loc_far = -3 (* in the far-future slot-heap *)
let loc_idle = -4 (* a bound timer that is not armed *)

(* Handles pack (gen lsl slot_bits) lor slot: 25 bits of slot index
   (33M concurrently pending events) and 37 bits of per-slot
   generation. *)
let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1

(* ----- wheel geometry ----- *)

(* Levels 1..3 have 64 buckets each, level l's slot spans
   2^(10 + 6l) cycles, and its buckets sit at [(l - 1) * 64] in the
   flat bucket arrays. The cursor counts level-1 slots, so level l's
   index of the cursor is [(cur lsr (6 * (l - 1))) land 63]. *)
let[@inline] slot_shift level = 10 + (6 * level)

let[@inline] bucket ~level idx = ((level - 1) lsl 6) lor idx

let total_buckets = 192

(* Bit position of the 2^34-cycle window that levels 1..3 cover; the
   far heap holds the events past the cursor's one. *)
let far_shift = 34

let create ?(seed = 1L) ?(queue = Wheel_queue) () =
  {
    clock = 0;
    kind = queue;
    time = [||];
    seq = [||];
    gen = [||];
    loc = [||];
    pos = [||];
    next = [||];
    prev = [||];
    act = [||];
    free = -1;
    cap = 0;
    next_seq = 0;
    live = 0;
    heads = Array.make total_buckets (-1);
    tails = Array.make total_buckets (-1);
    bits = Array.make (total_buckets / 32) 0;
    near = { a = [||]; n = 0 };
    far = { a = [||]; n = 0 };
    in_wheel = 0;
    cur = 0;
    stop = false;
    fired_count = 0;
    stream_fp = 0;
    root_rng = Rng.create seed;
    trace = Sim_obs.Trace.create ();
  }

(* ----- event slab ----- *)

let grow t =
  let cap = if t.cap = 0 then 256 else 2 * t.cap in
  if cap > slot_mask + 1 then failwith "Engine: event pool exhausted";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.gen <- extend t.gen 0;
  t.loc <- extend t.loc loc_free;
  t.pos <- extend t.pos 0;
  t.next <- extend t.next (-1);
  t.prev <- extend t.prev (-1);
  t.act <- extend t.act noop;
  (* Thread the new slots onto the free list, newest last so low
     indices are preferred (keeps the live region compact). *)
  for s = cap - 1 downto t.cap do
    t.next.(s) <- t.free;
    t.free <- s
  done;
  t.cap <- cap

let[@inline] claim t =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  s

(* Give a claimed slot its fire time and the next sequence number;
   the caller files it. *)
let[@inline] stamp t s ~time =
  t.time.(s) <- time;
  t.seq.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.next.(s) <- -1;
  t.prev.(s) <- -1;
  t.live <- t.live + 1

(* Bump the generation (invalidating outstanding handles), drop the
   action closure (so fired events are not pinned by the queue) and
   recycle the slot. *)
let[@inline] release t s =
  t.gen.(s) <- t.gen.(s) + 1;
  t.loc.(s) <- loc_free;
  t.act.(s) <- noop;
  t.next.(s) <- t.free;
  t.free <- s

let[@inline] handle_of t s = (t.gen.(s) lsl slot_bits) lor s

let[@inline] handle_live t h =
  let s = h land slot_mask in
  h >= 0
  && s < t.cap
  && t.gen.(s) = h lsr slot_bits
  && t.loc.(s) <> loc_free

(* ----- slot heaps ----- *)

(* The exact lexicographic (time, seq) key, read straight from the
   slab's unboxed int arrays. *)
let[@inline] less t i j =
  let ti = t.time.(i) and tj = t.time.(j) in
  ti < tj || (ti = tj && t.seq.(i) < t.seq.(j))

(* Heap moves keep [pos] current, so any resident can be removed. *)
let[@inline] place t a i s =
  a.(i) <- s;
  t.pos.(s) <- i

(* Fill the hole at [i] with [s], moving it towards the root. *)
let sift_up t a i s =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = a.(parent) in
    if less t s p then begin
      place t a !i p;
      i := parent
    end
    else continue := false
  done;
  place t a !i s

(* Fill the hole at [i] of an [n]-slot heap with [s], moving it
   towards the leaves. *)
let sift_down t a n i s =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let m = if r < n && less t a.(r) a.(l) then r else l in
      if less t a.(m) s then begin
        place t a !i a.(m);
        i := m
      end
      else continue := false
    end
  done;
  place t a !i s

let push t h s =
  if h.n = Array.length h.a then begin
    let cap = if h.n = 0 then 64 else 2 * h.n in
    let b = Array.make cap 0 in
    Array.blit h.a 0 b 0 h.n;
    h.a <- b
  end;
  let i = h.n in
  h.n <- i + 1;
  sift_up t h.a i s

(* Remove and return the minimum slot; the heap must be non-empty. *)
let pop t h =
  let a = h.a in
  let res = a.(0) in
  let n = h.n - 1 in
  h.n <- n;
  if n > 0 then sift_down t a n 0 a.(n);
  res

(* Remove the resident at index [i]: the last slot fills the hole and
   sifts whichever way restores the order around it. *)
let remove t h i =
  let n = h.n - 1 in
  h.n <- n;
  if i < n then begin
    let a = h.a in
    let s = a.(n) in
    if i > 0 && less t s a.((i - 1) / 2) then sift_up t a i s
    else sift_down t a n i s
  end

(* ----- occupancy bitmaps ----- *)

let[@inline] bit_set t b =
  t.bits.(b lsr 5) <- t.bits.(b lsr 5) lor (1 lsl (b land 31))

let[@inline] bit_clear t b =
  t.bits.(b lsr 5) <- t.bits.(b lsr 5) land lnot (1 lsl (b land 31))

(* Index (0..31) of the lowest set bit of a nonzero 32-bit word: the
   isolated bit times the de Bruijn constant 0x077CB531 puts a distinct
   5-bit pattern in bits 27..31, which the table maps back to the bit
   position. Branch-free; the product stays below 2^59, so OCaml's
   63-bit ints need only the 32-bit mask. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] lowest_set_bit x =
  Char.code
    (String.unsafe_get debruijn32
       ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

(* Lowest set bucket of [level] whose in-level index is >= [from];
   -1 when the rest of the level is empty. A level is two whole
   bitmap words, so the scan masks off the bits below [from] in the
   first word it reads and reads the second whole. *)
let next_occupied t ~level ~from =
  if from >= 64 then -1
  else begin
    let b = bucket ~level from in
    let i = b lsr 5 in
    let word = t.bits.(i) land (-1 lsl (b land 31)) in
    if word <> 0 then (i lsl 5) + lowest_set_bit word - bucket ~level 0
    else if from >= 32 then -1
    else
      let word = t.bits.(i + 1) in
      if word = 0 then -1 else 32 + lowest_set_bit word
  end

(* ----- bucket lists (intrusive, FIFO in insertion = seq order) ----- *)

let[@inline] bucket_append t b s =
  let tail = t.tails.(b) in
  if tail < 0 then begin
    t.heads.(b) <- s;
    bit_set t b
  end
  else begin
    t.next.(tail) <- s;
    t.prev.(s) <- tail
  end;
  t.next.(s) <- -1;
  t.tails.(b) <- s;
  t.loc.(s) <- b;
  t.in_wheel <- t.in_wheel + 1

(* Eager removal of a cancelled event or disarmed timer sitting in
   wheel bucket [b]: O(1); the caller releases the slot or idles the
   timer. *)
let bucket_unlink t b s =
  let nx = t.next.(s) in
  let pv = t.prev.(s) in
  if pv >= 0 then t.next.(pv) <- nx else t.heads.(b) <- nx;
  if nx >= 0 then t.prev.(nx) <- pv else t.tails.(b) <- pv;
  if t.heads.(b) < 0 then bit_clear t b;
  t.next.(s) <- -1;
  t.prev.(s) <- -1;
  t.in_wheel <- t.in_wheel - 1

(* Detach a whole bucket and return its head (FIFO order). *)
let bucket_take t b =
  let head = t.heads.(b) in
  if head >= 0 then begin
    t.heads.(b) <- -1;
    t.tails.(b) <- -1;
    bit_clear t b
  end;
  head

(* ----- insertion ----- *)

(* File a slot by its time; the one place the backends differ. The
   oracle keeps every event in the near heap. The wheel's window at
   level l spans the times sharing the cursor's
   [time lsr slot_shift (l + 1)] prefix. *)
let[@inline] insert t s =
  match t.kind with
  | Heap_queue ->
    t.loc.(s) <- loc_near;
    push t t.near s
  | Wheel_queue ->
    let time = t.time.(s) in
    let c = t.cur in
    if time lsr slot_shift 1 <= c then begin
      (* In the open slot or behind it: that level-1 bucket was already
         cascaded, so the event joins the near heap directly
         (zero-delay / same-instant scheduling lands here). *)
      t.loc.(s) <- loc_near;
      push t t.near s
    end
    else if time lsr slot_shift 2 = c lsr 6 then
      bucket_append t (bucket ~level:1 ((time lsr slot_shift 1) land 63)) s
    else if time lsr slot_shift 3 = c lsr 12 then
      bucket_append t (bucket ~level:2 ((time lsr slot_shift 2) land 63)) s
    else if time lsr far_shift = c lsr 18 then
      bucket_append t (bucket ~level:3 ((time lsr slot_shift 3) land 63)) s
    else begin
      t.loc.(s) <- loc_far;
      push t t.far s
    end

(* ----- cursor advance and cascading ----- *)

(* Re-distribute the cursor's bucket at [level] after the cursor
   entered it: every event lands at a strictly lower level, or in the
   near heap, preserving FIFO bucket order so re-insertion is
   stable. *)
let cascade t ~level =
  let b = bucket ~level ((t.cur lsr (6 * (level - 1))) land 63) in
  let s = ref (bucket_take t b) in
  while !s >= 0 do
    let nx = t.next.(!s) in
    t.next.(!s) <- -1;
    t.prev.(!s) <- -1;
    t.in_wheel <- t.in_wheel - 1;
    insert t !s;
    s := nx
  done

(* Pull far-future events whose 2^34 window the cursor has entered. *)
let pull_far t =
  let window = t.cur lsr (far_shift - slot_shift 1) in
  while t.far.n > 0 && t.time.(t.far.a.(0)) lsr far_shift = window do
    insert t (pop t t.far)
  done

(* Open the level-1 slot the cursor has just moved to. Entering a
   level-2 or level-3 window cascades outermost-first, so events settle
   one level at a time (far -> 3 -> 2 -> 1), and the level-1 bucket
   then cascades into the near heap. *)
let open_boundaries t =
  let c = t.cur in
  if c land 63 = 0 then begin
    if c land ((1 lsl 12) - 1) = 0 then begin
      if c land ((1 lsl 18) - 1) = 0 then pull_far t;
      cascade t ~level:3
    end;
    cascade t ~level:2
  end;
  cascade t ~level:1

(* The near heap is dry: move the cursor to the next occupied level-1
   bucket in the current level-2 window, else to the start of the next
   occupied level-2 bucket in the current level-3 window, else of the
   next occupied level-3 bucket, else to the next level-3 window. Each
   level's current bucket was cascaded when the cursor entered it and
   events at or behind the cursor go to the near heap, so a level's
   occupied buckets all lie after the cursor's index there and the scan
   never wraps. The buckets jumped over are empty, so the
   [open_boundaries] that must follow runs exactly the cascades a
   one-slot-at-a-time walk would have run on non-empty buckets. *)
let skip t =
  let c = t.cur in
  (* The open slot's level-1 bucket was cascaded when it opened; an
     occupied one means a skip ran without its [open_boundaries]. *)
  assert (t.heads.(bucket ~level:1 (c land 63)) < 0);
  let next =
    let i1 = next_occupied t ~level:1 ~from:((c land 63) + 1) in
    if i1 >= 0 then ((c lsr 6) lsl 6) lor i1
    else
      let i2 = next_occupied t ~level:2 ~from:(((c lsr 6) land 63) + 1) in
      if i2 >= 0 then ((c lsr 12) lsl 12) lor (i2 lsl 6)
      else
        let i3 = next_occupied t ~level:3 ~from:(((c lsr 12) land 63) + 1) in
        if i3 >= 0 then ((c lsr 18) lsl 18) lor (i3 lsl 12)
        else ((c lsr 18) + 1) lsl 18
  in
  (* A cursor moved backwards would re-file the buckets it opened and
     loop forever; fail loudly instead. *)
  assert (next > c);
  t.cur <- next

(* The near heap is empty: advance the cursor ([skip] then
   [open_boundaries]) until an opened slot yields an event, which is
   then the global (time, seq) minimum. [false] when no event remains
   anywhere, which is at once the case under the heap oracle. *)
let advance t =
  let live = ref false in
  let exhausted = ref false in
  while (not !live) && not !exhausted do
    if t.in_wheel = 0 then begin
      (* Only far-future events (if any) remain: fast-forward the
         cursor straight to the earliest one's window. *)
      if t.far.n = 0 then exhausted := true
      else begin
        let window = t.time.(t.far.a.(0)) lsr far_shift in
        t.cur <- Int.max t.cur (window lsl (far_shift - slot_shift 1));
        pull_far t;
        (* Events in the window's first slot went straight to the
           near heap; the rest wait in the wheel. *)
        live := t.near.n > 0
      end
    end
    else begin
      skip t;
      open_boundaries t;
      live := t.near.n > 0
    end
  done;
  !live

(* ----- the fire path -----

   Three primitives that allocate nothing: [ready] locates the
   minimum (advancing the cursor when the near heap is dry),
   [top_time] reads its fire time and [take] extracts its action.
   [step], [run] and [next_time] are built from them. *)

let[@inline] ready t = t.near.n > 0 || advance t

(* Valid only right after [ready] returned [true]. *)
let[@inline] top_time t = t.time.(t.near.a.(0))

(* Same validity rule as [top_time]. A fired timer keeps its slot
   and action and goes idle; a one-shot's slot is recycled. *)
let[@inline] take t =
  let s = pop t t.near in
  t.live <- t.live - 1;
  let action = t.act.(s) in
  if t.gen.(s) < 0 then t.loc.(s) <- loc_idle else release t s;
  action

(* ----- public interface ----- *)

let queue_kind t = t.kind

let now t = t.clock

let trace t = t.trace

let rng t = t.root_rng

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time
         t.clock);
  let s = claim t in
  stamp t s ~time;
  t.act.(s) <- action;
  insert t s;
  handle_of t s

let schedule_after t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ~time:(t.clock + delay) action

(* Take a pending slot out of its container: a wheel bucket or a
   slot heap. *)
let[@inline] unfile t s =
  let l = t.loc.(s) in
  if l >= 0 then bucket_unlink t l s
  else if l = loc_near then remove t t.near t.pos.(s)
  else remove t t.far t.pos.(s);
  t.live <- t.live - 1

let cancel t h =
  if handle_live t h then begin
    let s = h land slot_mask in
    unfile t s;
    release t s
  end

let is_pending t h = handle_live t h

let fire_time t h =
  if not (handle_live t h) then
    invalid_arg "Engine.fire_time: stale or fired handle"
  else t.time.(h land slot_mask)

let pending_count t = t.live

(* ----- timers ----- *)

(* A timer's generation is stored complemented: negative, it tells
   [take] to keep the slot, and it never equals a handle's, so no
   handle operation reaches a timer. *)
let timer t action =
  let s = claim t in
  t.gen.(s) <- lnot t.gen.(s);
  t.act.(s) <- action;
  t.loc.(s) <- loc_idle;
  s

let[@inline] armed t tm =
  tm >= 0
  &&
  let l = t.loc.(tm) in
  l <> loc_idle && l <> loc_free

let[@inline] arm_at t tm ~time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.arm: time %d is before now %d" time t.clock);
  if t.loc.(tm) <> loc_idle then invalid_arg "Engine.arm: timer is not idle";
  stamp t tm ~time;
  insert t tm

let arm t tm ~delay =
  if delay < 0 then invalid_arg "Engine.arm: negative delay";
  arm_at t tm ~time:(t.clock + delay)

let disarm t tm =
  if armed t tm then begin
    unfile t tm;
    t.loc.(tm) <- loc_idle
  end

let free_timer t tm =
  disarm t tm;
  if t.loc.(tm) <> loc_idle then invalid_arg "Engine.free_timer: not a timer";
  t.gen.(tm) <- lnot t.gen.(tm);
  release t tm

let[@inline] fire t time action =
  t.clock <- time;
  t.fired_count <- t.fired_count + 1;
  t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
  action ()

let step t =
  if ready t then begin
    let time = top_time t in
    fire t time (take t);
    true
  end
  else false

let halt t = t.stop <- true

let halted t = t.stop

(* The fire loop: one queue descent per fired event ([ready]), then
   the fire time is read and the action extracted in place, so firing
   an event allocates nothing. An event after [until] is left
   queued. *)
let run ?until t =
  t.stop <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let continue = ref true in
  while !continue && not t.stop do
    if ready t then begin
      let time = top_time t in
      if time <= limit then fire t time (take t) else continue := false
    end
    else continue := false
  done;
  match until with
  | Some limit when (not t.stop) && t.clock < limit -> t.clock <- limit
  | _ -> ()

let events_fired t = t.fired_count

let stream_fp t = t.stream_fp

let next_time t = if ready t then Some (top_time t) else None

(* Self-rescheduling event chains: the machine's slot/period clocks
   and the fault injector's recurring chaos windows. The action runs
   first and the next occurrence is armed after it returns, so a chain
   created with no jitter hook fires at exactly [start + k * period]
   with the same queue insertion order as a hand-rolled recursive
   schedule. Each chain is one timer, so a tick allocates nothing and
   stores no pointer. *)
let periodic t ~start ~period ?jitter action =
  if period <= 0 then invalid_arg "Engine.periodic: period must be positive";
  let stopped = ref false in
  let self = ref no_timer in
  let fire () =
    action ();
    if not !stopped then begin
      let extra = match jitter with None -> 0 | Some j -> Int.max 0 (j ()) in
      arm t !self ~delay:(period + extra)
    end
  in
  let tm = timer t fire in
  self := tm;
  arm_at t tm ~time:start;
  fun () ->
    if not !stopped then begin
      stopped := true;
      free_timer t tm
    end
