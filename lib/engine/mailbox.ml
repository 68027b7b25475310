(* Deterministic cross-member mailbox, fused post/flush hot path.

   One mailbox per receiving fabric member. Senders post (time, src, per-src
   seq, action) tuples under the mailbox mutex; the coordinator
   flushes between conservative windows, delivering in the canonical
   (time, src, seq) order no domain interleaving can perturb.

   Zero-alloc contract: messages live in preallocated parallel arrays — three int
   arrays plus one action array — so a post is four array stores under
   the lock and a flush is an in-place insertion sort plus a callback
   sweep. The only allocation on the whole path is the amortized array
   doubling when a window's mail exceeds every previous window's;
   steady state allocates nothing per message (see the regression test
   in test/test_decouple.ml). Insertion sort is the right shape here:
   per-window mail is small (tens of messages) and already nearly
   sorted because per-src sequences arrive monotonically. *)

type t = {
  lock : Mutex.t;
  mutable time : int array;
  mutable src : int array;
  mutable seq : int array;
  mutable act : (unit -> unit) array;
  mutable len : int;
}

let nop () = ()

let create ?(cap = 64) () =
  let cap = max 1 cap in
  {
    lock = Mutex.create ();
    time = Array.make cap 0;
    src = Array.make cap 0;
    seq = Array.make cap 0;
    act = Array.make cap nop;
    len = 0;
  }

let grow t =
  let cap = Array.length t.time in
  let cap' = 2 * cap in
  let copy a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.time <- copy t.time 0;
  t.src <- copy t.src 0;
  t.seq <- copy t.seq 0;
  t.act <- copy t.act nop

let post t ~time ~src ~seq action =
  Mutex.lock t.lock;
  if t.len = Array.length t.time then grow t;
  let i = t.len in
  t.time.(i) <- time;
  t.src.(i) <- src;
  t.seq.(i) <- seq;
  t.act.(i) <- action;
  t.len <- i + 1;
  Mutex.unlock t.lock

(* In-place insertion sort of the parallel arrays by (time, src, seq).
   Strictly-greater comparisons keep the sort stable, though stability
   is moot: (time, src, seq) triples are unique by construction. *)
let sort_in_place t =
  let n = t.len in
  for i = 1 to n - 1 do
    let ti = t.time.(i) and si = t.src.(i) and qi = t.seq.(i) in
    let ai = t.act.(i) in
    let j = ref (i - 1) in
    let after j =
      let tj = t.time.(j) in
      tj > ti
      || (tj = ti
          && (let sj = t.src.(j) in
              sj > si || (sj = si && t.seq.(j) > qi)))
    in
    while !j >= 0 && after !j do
      t.time.(!j + 1) <- t.time.(!j);
      t.src.(!j + 1) <- t.src.(!j);
      t.seq.(!j + 1) <- t.seq.(!j);
      t.act.(!j + 1) <- t.act.(!j);
      decr j
    done;
    t.time.(!j + 1) <- ti;
    t.src.(!j + 1) <- si;
    t.seq.(!j + 1) <- qi;
    t.act.(!j + 1) <- ai
  done

let flush t sink =
  Mutex.lock t.lock;
  let n = t.len in
  if n > 0 then begin
    sort_in_place t;
    for i = 0 to n - 1 do
      sink ~time:t.time.(i) t.act.(i)
    done;
    (* Drop closure references so delivered actions are collectable. *)
    Array.fill t.act 0 n nop;
    t.len <- 0
  end;
  Mutex.unlock t.lock;
  n
