(* Event-queue dispatch: one pooled handle representation, two
   interchangeable backends.

   - Wheel: the hierarchical timing wheel (Wheel.t) — O(1) schedule,
     near-O(1) amortised pop, eager cancel. The default.
   - Heap: a single slot-heap over the same pool — the old binary-heap
     behaviour (lazy cancellation), kept as the differential-testing
     oracle behind `--engine-queue=heap`.

   Both backends order events by the exact lexicographic (time, seq)
   key, so their pop sequences are identical event for event; figures
   and ablations are byte-identical across backends. *)

type kind = Wheel_queue | Heap_queue

let kind_name = function Wheel_queue -> "wheel" | Heap_queue -> "heap"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "wheel" -> Some Wheel_queue
  | "heap" -> Some Heap_queue
  | _ -> None

type backend = Wheel of Wheel.t | Heap of Wheel.Sheap.t

type t = {
  pool : Wheel.pool;
  backend : backend;
  mutable seq : int;
  (* Live (scheduled - fired - cancelled) events, maintained here so
     [length] is O(1) with either backend. *)
  mutable live : int;
}

let create kind =
  let pool = Wheel.pool_create () in
  let backend =
    match kind with
    | Wheel_queue -> Wheel (Wheel.create pool)
    | Heap_queue -> Heap (Wheel.Sheap.create ())
  in
  { pool; backend; seq = 0; live = 0 }

let kind t =
  match t.backend with Wheel _ -> Wheel_queue | Heap _ -> Heap_queue

let length t = t.live

let is_empty t = t.live = 0

type handle = int

let schedule t ~time action =
  let s = Wheel.alloc t.pool ~time ~seq:t.seq action in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  (match t.backend with
  | Wheel w -> Wheel.insert w s
  | Heap h ->
    t.pool.Wheel.loc.(s) <- Wheel.loc_aux;
    Wheel.Sheap.push t.pool h s);
  Wheel.handle_of t.pool s

let is_pending t h = Wheel.handle_live t.pool h

let fire_time t h =
  if not (Wheel.handle_live t.pool h) then
    invalid_arg "Equeue.fire_time: stale or fired handle"
  else t.pool.Wheel.time.(Wheel.handle_slot h)

(* [cancel] returns whether the event was still pending (the caller
   keeps the live-event accounting). Wheel-bucket residents are
   unlinked and recycled on the spot; slot-heap residents (near/far
   regions and the heap oracle) are tombstoned and dropped when they
   surface. *)
let cancel t h =
  if not (Wheel.handle_live t.pool h) then false
  else begin
    let s = Wheel.handle_slot h in
    let loc = t.pool.Wheel.loc.(s) in
    if loc >= 0 then begin
      (match t.backend with
      | Wheel w -> Wheel.remove w s
      | Heap _ -> assert false);
      Wheel.release t.pool s
    end
    else begin
      t.pool.Wheel.loc.(s) <- Wheel.loc_dead;
      t.pool.Wheel.act.(s) <- Wheel.noop
    end;
    t.live <- t.live - 1;
    true
  end

(* Drop tombstones off the heap-oracle top; [true] iff a live event
   remains on top. *)
let rec heap_ensure pool h =
  let s = Wheel.Sheap.top h in
  if s < 0 then false
  else if pool.Wheel.loc.(s) = Wheel.loc_dead then begin
    ignore (Wheel.Sheap.pop pool h);
    Wheel.release pool s;
    heap_ensure pool h
  end
  else true

(* Peek at the live minimum's fire time without extracting it. Shares
   the backend descent with [pop]: the wheel advances its cursor until
   the near heap holds the global minimum, the heap oracle sheds
   tombstones off its top. Both are work [pop] would do anyway. *)
let next_time t =
  match t.backend with
  | Wheel w -> if Wheel.ensure_near w then Some (Wheel.near_top_time w) else None
  | Heap h ->
    if heap_ensure t.pool h then
      Some t.pool.Wheel.time.(Wheel.Sheap.top h)
    else None

type pop_result =
  | Event of int * (unit -> unit)  (** fire time and action *)
  | Beyond  (** next live event is after [limit]; left queued *)
  | Empty

(* One queue descent per fired event: find the live minimum, compare
   against the limit, and either extract it or leave it queued. *)
let pop ?limit t =
  let take_slot time s =
    let action = t.pool.Wheel.act.(s) in
    Wheel.release t.pool s;
    t.live <- t.live - 1;
    Event (time, action)
  in
  match t.backend with
  | Wheel w ->
    if not (Wheel.ensure_near w) then Empty
    else begin
      let time = Wheel.near_top_time w in
      match limit with
      | Some l when time > l -> Beyond
      | _ -> take_slot time (Wheel.take_near w)
    end
  | Heap h ->
    if not (heap_ensure t.pool h) then Empty
    else begin
      let time = t.pool.Wheel.time.(Wheel.Sheap.top h) in
      match limit with
      | Some l when time > l -> Beyond
      | _ -> take_slot time (Wheel.Sheap.pop t.pool h)
    end

(* Fused fire loop: equivalent to looping over [pop ~limit] but with
   no per-event allocation (neither the [limit] option nor the
   [pop_result] block). Not on the simulator's fire path (Engine.run
   pops one event at a time); test_equeue checks it against the heap
   oracle. *)
let drain t ~limit f =
  let continue_ = ref true in
  (match t.backend with
  | Wheel w ->
    while !continue_ do
      if not (Wheel.ensure_near w) then continue_ := false
      else begin
        let time = Wheel.near_top_time w in
        if time > limit then continue_ := false
        else begin
          let s = Wheel.take_near w in
          let action = t.pool.Wheel.act.(s) in
          Wheel.release t.pool s;
          t.live <- t.live - 1;
          f time action
        end
      end
    done
  | Heap h ->
    while !continue_ do
      if not (heap_ensure t.pool h) then continue_ := false
      else begin
        let time = t.pool.Wheel.time.(Wheel.Sheap.top h) in
        if time > limit then continue_ := false
        else begin
          let s = Wheel.Sheap.pop t.pool h in
          let action = t.pool.Wheel.act.(s) in
          Wheel.release t.pool s;
          t.live <- t.live - 1;
          f time action
        end
      end
    done)
