(* Hierarchical timing wheel over a pooled event store.

   The pool is a struct-of-arrays slab: every scheduled event occupies
   one integer slot whose time/seq/links live in flat int arrays and
   whose action lives in a parallel closure array. Slots are recycled
   through a free list on fire/cancel, so the steady-state hot path
   (schedule, fire, cancel) allocates nothing — the public handle is
   the slot index packed with a generation stamp that detects stale
   references to recycled slots.

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
   Cancelled events are unlinked from wheel buckets eagerly (O(1) via
   the intrusive doubly-linked lists); only events already in a
   slot-heap are tombstoned and dropped lazily at the top.

   The cursor advance costs in proportion to occupied buckets, not to
   elapsed time. Each level keeps a one-bit-per-bucket occupancy
   bitmap, scanned a 32-bit word at a time with a de Bruijn
   lowest-set-bit lookup. When the near heap runs dry, the cursor
   jumps straight to the next occupied bucket of the lowest level that
   has one (1, then 2, then 3), so the empty slots between two sparse
   events cost one scan per level rather than one step per 2^16-cycle
   slot. *)

(* ----- pooled event store ----- *)

let noop () = ()

type pool = {
  mutable time : int array;
  mutable seq : int array;
  mutable gen : int array;
  mutable loc : int array;
  mutable link_next : int array;
  mutable link_prev : int array;
  mutable act : (unit -> unit) array;
  mutable free : int;  (* free-list head threaded through link_next *)
  mutable cap : int;
}

(* [loc] is the event's current container: a wheel bucket's
   (non-negative) index, or one of: *)
let loc_free = -1
let loc_near = -2 (* in the near slot-heap *)
let loc_far = -3 (* in the far-future slot-heap *)
let loc_aux = -4 (* in a backend-owned slot-heap (heap oracle) *)
let loc_dead = -5 (* cancelled while in a slot-heap; dropped lazily *)

(* Handles pack (gen lsl slot_bits) lor slot: 25 bits of slot index
   (33M concurrently pending events) and 37 bits of per-slot
   generation, bumped every time the slot is released. *)
let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1

let pool_create () =
  {
    time = [||];
    seq = [||];
    gen = [||];
    loc = [||];
    link_next = [||];
    link_prev = [||];
    act = [||];
    free = -1;
    cap = 0;
  }

let grow_pool p =
  let cap = if p.cap = 0 then 256 else 2 * p.cap in
  if cap > slot_mask + 1 then failwith "Wheel: event pool exhausted";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 p.cap;
    b
  in
  p.time <- extend p.time 0;
  p.seq <- extend p.seq 0;
  p.gen <- extend p.gen 0;
  p.loc <- extend p.loc loc_free;
  p.link_next <- extend p.link_next (-1);
  p.link_prev <- extend p.link_prev (-1);
  p.act <- extend p.act noop;
  (* Thread the new slots onto the free list, newest last so low
     indices are preferred (keeps the live region compact). *)
  for s = cap - 1 downto p.cap do
    p.link_next.(s) <- p.free;
    p.free <- s
  done;
  p.cap <- cap

let alloc p ~time ~seq action =
  if p.free < 0 then grow_pool p;
  let s = p.free in
  p.free <- p.link_next.(s);
  p.time.(s) <- time;
  p.seq.(s) <- seq;
  p.act.(s) <- action;
  p.link_next.(s) <- -1;
  p.link_prev.(s) <- -1;
  s

(* Bump the generation (invalidating outstanding handles), drop the
   action closure (so fired events are not pinned by the queue) and
   recycle the slot. *)
let release p s =
  p.gen.(s) <- p.gen.(s) + 1;
  p.loc.(s) <- loc_free;
  p.act.(s) <- noop;
  p.link_next.(s) <- p.free;
  p.free <- s

let handle_of p s = (p.gen.(s) lsl slot_bits) lor s

let handle_slot h = h land slot_mask

let handle_live p h =
  let s = h land slot_mask in
  h >= 0
  && s < p.cap
  && p.gen.(s) = h lsr slot_bits
  && p.loc.(s) <> loc_free
  && p.loc.(s) <> loc_dead

(* ----- slot-heap: binary min-heap of pool slots ----- *)

(* Ordering is the exact lexicographic (time, seq) key read straight
   from the pool's unboxed int arrays — no per-entry allocation. *)
module Sheap = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let length h = h.n

  let is_empty h = h.n = 0

  let clear h = h.n <- 0

  let less p i j =
    p.time.(i) < p.time.(j)
    || (p.time.(i) = p.time.(j) && p.seq.(i) < p.seq.(j))

  let push p h s =
    if h.n = Array.length h.a then begin
      let cap = if h.n = 0 then 64 else 2 * h.n in
      let b = Array.make cap 0 in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    let a = h.a in
    a.(h.n) <- s;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      less p a.(!i) a.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = a.(!i) in
      a.(!i) <- a.(parent);
      a.(parent) <- tmp;
      i := parent
    done

  let top h = if h.n = 0 then -1 else h.a.(0)

  let pop p h =
    if h.n = 0 then -1
    else begin
      let a = h.a in
      let res = a.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        a.(0) <- a.(h.n);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 in
          let r = l + 1 in
          let m = ref !i in
          if l < h.n && less p a.(l) a.(!m) then m := l;
          if r < h.n && less p a.(r) a.(!m) then m := r;
          if !m = !i then continue := false
          else begin
            let tmp = a.(!i) in
            a.(!i) <- a.(!m);
            a.(!m) <- tmp;
            i := !m
          end
        done
      end;
      res
    end
end

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

type t = {
  p : pool;
  heads : int array;
  tails : int array;
  (* Occupancy bitmaps, one bit per bucket, 32 bits per word. *)
  bits : int array;
  near : Sheap.t;
  far : Sheap.t;
  mutable in_wheel : int;
  (* Cursor in level-1 slot units: the slot it names, and every slot
     before it, has been opened, so events whose [time lsr 16] is at
     most [cur] go straight to the near heap. *)
  mutable cur : int;
}

let create p =
  {
    p;
    heads = Array.make total_buckets (-1);
    tails = Array.make total_buckets (-1);
    bits = Array.make (total_buckets / 32) 0;
    near = Sheap.create ();
    far = Sheap.create ();
    in_wheel = 0;
    cur = 0;
  }

let bit_set w b = w.bits.(b lsr 5) <- w.bits.(b lsr 5) lor (1 lsl (b land 31))

let bit_clear w b =
  w.bits.(b lsr 5) <- w.bits.(b lsr 5) land lnot (1 lsl (b land 31))

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
let next_occupied w ~level ~from =
  if from >= 64 then -1
  else begin
    let b = bucket ~level from in
    let i = b lsr 5 in
    let word = w.bits.(i) land (-1 lsl (b land 31)) in
    if word <> 0 then (i lsl 5) + lowest_set_bit word - bucket ~level 0
    else if from >= 32 then -1
    else
      let word = w.bits.(i + 1) in
      if word = 0 then -1 else 32 + lowest_set_bit word
  end

(* ----- bucket lists (intrusive, FIFO in insertion = seq order) ----- *)

let bucket_append w b s =
  let p = w.p in
  let tail = w.tails.(b) in
  if tail < 0 then begin
    w.heads.(b) <- s;
    bit_set w b
  end
  else begin
    p.link_next.(tail) <- s;
    p.link_prev.(s) <- tail
  end;
  p.link_next.(s) <- -1;
  w.tails.(b) <- s;
  p.loc.(s) <- b;
  w.in_wheel <- w.in_wheel + 1

let bucket_unlink w b s =
  let p = w.p in
  let nx = p.link_next.(s) in
  let pv = p.link_prev.(s) in
  if pv >= 0 then p.link_next.(pv) <- nx else w.heads.(b) <- nx;
  if nx >= 0 then p.link_prev.(nx) <- pv else w.tails.(b) <- pv;
  if w.heads.(b) < 0 then bit_clear w b;
  p.link_next.(s) <- -1;
  p.link_prev.(s) <- -1;
  w.in_wheel <- w.in_wheel - 1

(* Detach a whole bucket and return its head (FIFO order). *)
let bucket_take w b =
  let head = w.heads.(b) in
  if head >= 0 then begin
    w.heads.(b) <- -1;
    w.tails.(b) <- -1;
    bit_clear w b
  end;
  head

(* ----- insertion ----- *)

(* File a slot by its time. The cursor's window at level l spans the
   times sharing its [time lsr slot_shift (l + 1)] prefix. *)
let insert w s =
  let p = w.p in
  let time = p.time.(s) in
  let c = w.cur in
  if time lsr slot_shift 1 <= c then begin
    (* In the open slot or behind it: that level-1 bucket was already
       cascaded, so the event joins the near heap directly
       (zero-delay / same-instant scheduling lands here). *)
    p.loc.(s) <- loc_near;
    Sheap.push p w.near s
  end
  else if time lsr slot_shift 2 = c lsr 6 then
    bucket_append w (bucket ~level:1 ((time lsr slot_shift 1) land 63)) s
  else if time lsr slot_shift 3 = c lsr 12 then
    bucket_append w (bucket ~level:2 ((time lsr slot_shift 2) land 63)) s
  else if time lsr far_shift = c lsr 18 then
    bucket_append w (bucket ~level:3 ((time lsr slot_shift 3) land 63)) s
  else begin
    p.loc.(s) <- loc_far;
    Sheap.push p w.far s
  end

(* Eager removal of a cancelled event sitting in a wheel bucket
   (loc >= 0). The slot is unlinked in O(1) and can be released
   immediately — no tombstone is left behind. *)
let remove w s = bucket_unlink w w.p.loc.(s) s

(* ----- cursor advance and cascading ----- *)

(* Re-distribute the cursor's bucket at [level] after the cursor
   entered it: every event lands at a strictly lower level, or in the
   near heap, preserving FIFO bucket order so re-insertion is
   stable. *)
let cascade w ~level =
  let b = bucket ~level ((w.cur lsr (6 * (level - 1))) land 63) in
  let s = ref (bucket_take w b) in
  let p = w.p in
  while !s >= 0 do
    let nx = p.link_next.(!s) in
    p.link_next.(!s) <- -1;
    p.link_prev.(!s) <- -1;
    w.in_wheel <- w.in_wheel - 1;
    insert w !s;
    s := nx
  done

(* Pull far-future events whose 2^34 window the cursor has entered.
   Cancelled tombstones surfacing at the top are dropped here. *)
let pull_far w =
  let p = w.p in
  let window = w.cur lsr (far_shift - slot_shift 1) in
  let continue = ref true in
  while !continue && not (Sheap.is_empty w.far) do
    let s = Sheap.top w.far in
    if p.loc.(s) = loc_dead then begin
      ignore (Sheap.pop p w.far);
      release p s
    end
    else if p.time.(s) lsr far_shift = window then begin
      ignore (Sheap.pop p w.far);
      insert w s
    end
    else continue := false
  done

(* Drop cancelled events that bubbled to the top of the near heap. *)
let drop_dead_near w =
  let p = w.p in
  let continue = ref true in
  while !continue && not (Sheap.is_empty w.near) do
    let s = Sheap.top w.near in
    if p.loc.(s) = loc_dead then begin
      ignore (Sheap.pop p w.near);
      release p s
    end
    else continue := false
  done

(* Open the level-1 slot the cursor has just moved to. Entering a
   level-2 or level-3 window cascades outermost-first, so events settle
   one level at a time (far -> 3 -> 2 -> 1), and the level-1 bucket
   then cascades into the near heap. *)
let open_boundaries w =
  let c = w.cur in
  if c land 63 = 0 then begin
    if c land ((1 lsl 12) - 1) = 0 then begin
      if c land ((1 lsl 18) - 1) = 0 then pull_far w;
      cascade w ~level:3
    end;
    cascade w ~level:2
  end;
  cascade w ~level:1

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
let skip w =
  let c = w.cur in
  (* The open slot's level-1 bucket was cascaded when it opened; an
     occupied one means a skip ran without its [open_boundaries]. *)
  assert (w.heads.(bucket ~level:1 (c land 63)) < 0);
  let next =
    let i1 = next_occupied w ~level:1 ~from:((c land 63) + 1) in
    if i1 >= 0 then ((c lsr 6) lsl 6) lor i1
    else
      let i2 = next_occupied w ~level:2 ~from:(((c lsr 6) land 63) + 1) in
      if i2 >= 0 then ((c lsr 12) lsl 12) lor (i2 lsl 6)
      else
        let i3 = next_occupied w ~level:3 ~from:(((c lsr 12) land 63) + 1) in
        if i3 >= 0 then ((c lsr 18) lsl 18) lor (i3 lsl 12)
        else ((c lsr 18) + 1) lsl 18
  in
  (* A cursor moved backwards would re-file the buckets it opened and
     loop forever; fail loudly instead. *)
  assert (next > c);
  w.cur <- next

(* Advance the cursor until the near heap holds the global minimum
   (time, seq) event: [skip] then [open_boundaries], until an opened
   slot yields a live event. Returns false when no live event remains
   anywhere. *)
let ensure_near w =
  drop_dead_near w;
  let live = ref (not (Sheap.is_empty w.near)) in
  let exhausted = ref false in
  while (not !live) && not !exhausted do
    if w.in_wheel = 0 then begin
      (* Only far-future events (if any) remain: fast-forward the
         cursor straight to the earliest one's window. *)
      let p = w.p in
      let continue = ref true in
      while !continue && not (Sheap.is_empty w.far) do
        let s = Sheap.top w.far in
        if p.loc.(s) = loc_dead then begin
          ignore (Sheap.pop p w.far);
          release p s
        end
        else continue := false
      done;
      if Sheap.is_empty w.far then exhausted := true
      else begin
        let window = p.time.(Sheap.top w.far) lsr far_shift in
        w.cur <- max w.cur (window lsl (far_shift - slot_shift 1));
        pull_far w;
        (* Events in the window's first slot went straight to the
           near heap; the rest wait in the wheel. *)
        live := not (Sheap.is_empty w.near)
      end
    end
    else begin
      skip w;
      open_boundaries w;
      live := not (Sheap.is_empty w.near)
    end
  done;
  !live

(* Next live event's fire time without removing it; only valid right
   after [ensure_near] returned true. *)
let near_top_time w = w.p.time.(Sheap.top w.near)

(* Remove and return the near-heap minimum slot (caller releases). *)
let take_near w = Sheap.pop w.p w.near
