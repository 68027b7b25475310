(* Hierarchical timing wheel over a pooled event store.

   The pool is a struct-of-arrays slab: every scheduled event occupies
   one integer slot whose time/seq/links live in flat int arrays and
   whose action lives in a parallel closure array. Slots are recycled
   through a free list on fire/cancel, so the steady-state hot path
   (schedule, fire, cancel) allocates nothing — the public handle is
   the slot index packed with a generation stamp that detects stale
   references to recycled slots.

   Wheel geometry (cycle-granularity virtual time):

     level 0: 256 slots x 2^8 cycles    (window 2^16 ~ 28 us @2.33GHz)
     level 1:  64 slots x 2^16 cycles   (window 2^22 ~ 1.8 ms)
     level 2:  64 slots x 2^22 cycles   (window 2^28 ~ 115 ms)
     level 3:  64 slots x 2^28 cycles   (window 2^34 ~ 7.4 s)
     beyond:  far-future slot-heap, pulled when the cursor enters
              its 2^34 window

   The fine level-0 slot (2^8 cycles) keeps the near heap small even
   when the pending set is dense: the near heap holds one slot's
   events, and its size is what the wheel pays log() on.

   Events land in the lowest level whose window contains them; when
   the cursor crosses a level boundary the corresponding bucket
   cascades down. A bucket reaching level 0 is dumped into the "near"
   slot-heap, which restores exact (time, seq) order; insertions at or
   behind the cursor go straight to the near heap, so zero-delay and
   same-instant scheduling keep their FIFO semantics. Cancelled events
   are unlinked from wheel buckets eagerly (O(1) via the intrusive
   doubly-linked lists); only events already in a slot-heap are
   tombstoned and dropped lazily at the top.

   The cursor advance costs in proportion to occupied buckets, not to
   elapsed time. Each level keeps a one-bit-per-bucket occupancy
   bitmap, scanned a 32-bit word at a time with a de Bruijn
   lowest-set-bit lookup. When level 0 runs dry, the cursor jumps
   straight to the next occupied bucket of the lowest level that has
   one (1, then 2, then 3), so the empty windows between two sparse
   events cost one scan per level rather than one step per 2^16-cycle
   window. *)

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

(* [loc] is the event's current container: a non-negative
   [(level lsl 9) lor bucket] for wheel buckets, or one of: *)
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
  s < p.cap
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

(* Bit position of each level's slot width. *)
let shifts = [| 8; 16; 22; 28 |]

let level_sizes = [| 256; 64; 64; 64 |]

let level_masks = [| 255; 63; 63; 63 |]

let bucket_offsets = [| 0; 256; 320; 384 |]

let total_buckets = 448

type t = {
  p : pool;
  heads : int array;
  tails : int array;
  (* Occupancy bitmaps, one bit per bucket, 32 bits per word. *)
  bits : int array;
  near : Sheap.t;
  far : Sheap.t;
  mutable in_wheel : int;
  (* Cursor in level-0 slot units: every level-0 bucket with absolute
     index < cur0 has been dumped; events at or behind it go straight
     to the near heap. *)
  mutable cur0 : int;
}

let create p =
  {
    p;
    heads = Array.make total_buckets (-1);
    tails = Array.make total_buckets (-1);
    bits = Array.make ((total_buckets + 31) / 32) 0;
    near = Sheap.create ();
    far = Sheap.create ();
    in_wheel = 0;
    cur0 = 0;
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
   -1 when the rest of the level is empty. Every level starts on a
   word boundary, so the scan masks off the bits below [from] in the
   first word and then reads whole words. *)
let next_occupied w ~level ~from =
  let size = level_sizes.(level) in
  if from >= size then -1
  else begin
    let base = bucket_offsets.(level) in
    let b = base + from in
    let last = (base + size - 1) lsr 5 in
    let i = ref (b lsr 5) in
    let word = ref (w.bits.(!i) land (-1 lsl (b land 31))) in
    while !word = 0 && !i < last do
      incr i;
      word := w.bits.(!i)
    done;
    if !word = 0 then -1 else (!i lsl 5) + lowest_set_bit !word - base
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

let insert w s =
  let p = w.p in
  let time = p.time.(s) in
  if time lsr shifts.(0) < w.cur0 then begin
    (* At or behind the cursor: the bucket was already dumped, so the
       event joins the near heap directly (zero-delay / same-instant
       scheduling lands here). *)
    p.loc.(s) <- loc_near;
    Sheap.push p w.near s
  end
  else begin
    (* Lowest level whose current window contains the event. The
       cursor's window at level l spans the times sharing its
       [time lsr shifts.(l+1)] prefix. *)
    let now0 = w.cur0 in
    let level =
      if time lsr shifts.(1) = now0 lsr (shifts.(1) - shifts.(0)) then 0
      else if time lsr shifts.(2) = now0 lsr (shifts.(2) - shifts.(0)) then 1
      else if time lsr shifts.(3) = now0 lsr (shifts.(3) - shifts.(0)) then 2
      else if time lsr (shifts.(3) + 6) = now0 lsr (shifts.(3) + 6 - shifts.(0)) then 3
      else -1
    in
    if level < 0 then begin
      p.loc.(s) <- loc_far;
      Sheap.push p w.far s
    end
    else
      let b =
        bucket_offsets.(level)
        + ((time lsr shifts.(level)) land level_masks.(level))
      in
      bucket_append w b s
  end

(* Eager removal of a cancelled event sitting in a wheel bucket
   (loc >= 0). The slot is unlinked in O(1) and can be released
   immediately — no tombstone is left behind. *)
let remove w s = bucket_unlink w w.p.loc.(s) s

(* ----- cursor advance and cascading ----- *)

(* Re-distribute a higher-level bucket after the cursor entered its
   window: every event lands at a strictly lower level (or the near
   heap), preserving FIFO bucket order so re-insertion is stable. *)
let cascade w ~level =
  let b =
    bucket_offsets.(level)
    + ((w.cur0 lsr (shifts.(level) - shifts.(0))) land level_masks.(level))
  in
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
  let window = w.cur0 lsr (shifts.(3) + 6 - shifts.(0)) in
  let continue = ref true in
  while !continue && not (Sheap.is_empty w.far) do
    let s = Sheap.top w.far in
    if p.loc.(s) = loc_dead then begin
      ignore (Sheap.pop p w.far);
      release p s
    end
    else if p.time.(s) lsr (shifts.(3) + 6) = window then begin
      ignore (Sheap.pop p w.far);
      insert w s
    end
    else continue := false
  done

(* Dump the level-0 bucket at absolute slot index [idx0] into the
   near heap and move the cursor past it. *)
let dump w idx0 =
  let p = w.p in
  let b = bucket_offsets.(0) + (idx0 land level_masks.(0)) in
  let s = ref (bucket_take w b) in
  while !s >= 0 do
    let nx = p.link_next.(!s) in
    p.link_next.(!s) <- -1;
    p.link_prev.(!s) <- -1;
    w.in_wheel <- w.in_wheel - 1;
    p.loc.(!s) <- loc_near;
    Sheap.push p w.near !s;
    s := nx
  done;
  w.cur0 <- idx0 + 1

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

(* Process the level boundaries the cursor currently sits on: entering
   a level-1 window cascades its bucket down to level 0; entering a
   higher-level window cascades outermost-first so events settle one
   level at a time (far -> 3 -> 2 -> 1). The cursor can land on a
   boundary either by a [skip] or by [dump]ing the last slot of a
   window, so this runs at the top of every advance step; it is
   idempotent at a fixed cursor — an already-opened window's buckets
   are simply empty. *)
let open_boundaries w =
  if w.cur0 land 255 = 0 then begin
    if w.cur0 land ((1 lsl 14) - 1) = 0 then begin
      if w.cur0 land ((1 lsl 26) - 1) = 0 then pull_far w;
      if w.cur0 land ((1 lsl 20) - 1) = 0 then cascade w ~level:3;
      cascade w ~level:2
    end;
    cascade w ~level:1
  end

(* Level 0 is empty from the cursor to the end of its level-1 window:
   move the cursor to the start of the next occupied level-1 bucket in
   the current level-2 window, else of the next occupied level-2
   bucket in the current level-3 window, else of the next occupied
   level-3 bucket, else to the next level-3 window. Each level's
   current bucket was cascaded when the cursor entered it and events
   behind the cursor go to the near heap, so a level's occupied
   buckets all lie after the cursor's index there and the scan never
   wraps. The buckets jumped over are empty, so the next
   [open_boundaries] runs exactly the cascades a one-window-at-a-time
   walk would have run on non-empty buckets. *)
let skip w =
  let c = w.cur0 in
  let next =
    let i1 = next_occupied w ~level:1 ~from:(((c lsr 8) land 63) + 1) in
    if i1 >= 0 then ((c lsr 14) lsl 14) lor (i1 lsl 8)
    else
      let i2 = next_occupied w ~level:2 ~from:(((c lsr 14) land 63) + 1) in
      if i2 >= 0 then ((c lsr 20) lsl 20) lor (i2 lsl 14)
      else
        let i3 = next_occupied w ~level:3 ~from:(((c lsr 20) land 63) + 1) in
        if i3 >= 0 then ((c lsr 26) lsl 26) lor (i3 lsl 20)
        else ((c lsr 26) + 1) lsl 26
  in
  (* A cursor moved backwards would re-file the buckets it opened and
     loop forever; fail loudly instead. *)
  assert (next > c);
  w.cur0 <- next

(* Advance the cursor until the near heap holds the global minimum
   (time, seq) event, cascading buckets at level boundaries. Returns
   false when no live event remains anywhere. *)
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
        let t_min = p.time.(Sheap.top w.far) in
        w.cur0 <- max w.cur0 ((t_min lsr (shifts.(3) + 6)) lsl (shifts.(3) + 6 - shifts.(0)));
        pull_far w
      end
    end
    else begin
      open_boundaries w;
      (* Next occupied level-0 bucket in the cursor's current level-1
         window, if any; otherwise skip ahead to the next occupied
         bucket further up (the next iteration opens it). *)
      let idx = next_occupied w ~level:0 ~from:(w.cur0 land 255) in
      if idx >= 0 then begin
        (* The masked scan never wraps: buckets below cur0's masked
           index belong to already-dumped slots, and next-window
           events live at level >= 1 until their cascade. *)
        dump w ((w.cur0 land lnot 255) lor idx);
        live := true
      end
      else skip w
    end
  done;
  !live

(* Next live event's fire time without removing it; only valid right
   after [ensure_near] returned true. *)
let near_top_time w = w.p.time.(Sheap.top w.near)

(* Remove and return the near-heap minimum slot (caller releases). *)
let take_near w = Sheap.pop w.p w.near
