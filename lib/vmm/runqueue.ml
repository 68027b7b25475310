(* Singly-linked FIFO with a tail pointer and a length counter:
   insert (append) and length are O(1) — they sit on the VMM's
   wake/preempt hot path — while removal and the priority scans stay
   O(n) over queues bounded by the total VCPU count.

   The queues of one VMM share an occupancy bitmap: bit [p] (word
   [p lsr 5], 32 bits per word for [Engine.lowest_set_bit]) is set
   exactly while PCPU [p]'s queue is non-empty. [insert] and [remove]
   flip it on the empty/non-empty transitions, so a steal scan visits
   only queues that hold work. *)

type node = { v : Vcpu.t; mutable next : node option }

type t = {
  pcpu_id : int;
  mutable first : node option; (* FIFO: first = oldest *)
  mutable last : node option;
  mutable len : int;
  occupied : int array;  (** the bitmap shared by the queue's set *)
}

let bitmap n = Array.make ((n + 31) lsr 5) 0

let make occupied pcpu =
  { pcpu_id = pcpu; first = None; last = None; len = 0; occupied }

let create ~pcpu = make (bitmap (pcpu + 1)) pcpu

let create_set n =
  let occupied = bitmap n in
  Array.init n (make occupied)

let[@inline] set_bit t =
  let w = t.pcpu_id lsr 5 in
  t.occupied.(w) <- t.occupied.(w) lor (1 lsl (t.pcpu_id land 31))

let[@inline] clear_bit t =
  let w = t.pcpu_id lsr 5 in
  t.occupied.(w) <- t.occupied.(w) land lnot (1 lsl (t.pcpu_id land 31))

let occupied t =
  (t.occupied.(t.pcpu_id lsr 5) lsr (t.pcpu_id land 31)) land 1 = 1

(* Lowest set bit at or after word [w], with [mask] applied to word
   [w] only. *)
let rec scan bits w mask =
  if w >= Array.length bits then -1
  else
    let x = bits.(w) land mask in
    if x = 0 then scan bits (w + 1) (-1)
    else (w lsl 5) + Sim_engine.Engine.lowest_set_bit x

let next_occupied t p = scan t.occupied (p lsr 5) (-1 lsl (p land 31))

let pcpu t = t.pcpu_id

let length t = t.len

let is_empty t = t.len = 0

let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f acc n.v) n.next
  in
  go init t.first

(* The scans below recurse over the nodes directly instead of going
   through [fold] with a closure: they run on every scheduling
   decision, and a predicate capturing its arguments would be
   allocated on each call. *)
let rec mem_from v = function
  | None -> false
  | Some n -> n.v == v || mem_from v n.next

let mem t v = mem_from v t.first

let insert t v =
  if not (Vcpu.is_ready v) then
    invalid_arg "Runqueue.insert: vcpu is not Ready";
  if mem t v then invalid_arg "Runqueue.insert: vcpu already queued";
  v.Vcpu.home <- t.pcpu_id;
  let n = Some { v; next = None } in
  (match t.last with
  | None -> t.first <- n
  | Some last -> last.next <- n);
  t.last <- n;
  if t.len = 0 then set_bit t;
  t.len <- t.len + 1

(* [prev] is the option that points at [cur]'s node, passed on as is
   rather than boxed afresh at each step. *)
let rec unlink t v prev cur =
  match cur with
  | None -> invalid_arg "Runqueue.remove: vcpu not in queue"
  | Some n when n.v == v ->
    (match prev with
    | None -> t.first <- n.next
    | Some p -> p.next <- n.next);
    (match n.next with None -> t.last <- prev | Some _ -> ());
    t.len <- t.len - 1;
    if t.len = 0 then clear_bit t
  | Some n -> unlink t v cur n.next

let remove t v = unlink t v None t.first

let rec iter_from f = function
  | None -> ()
  | Some n ->
    f n.v;
    iter_from f n.next

let iter t ~f = iter_from f t.first

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc v -> v :: acc))

(* Strictly better in (boosted, credit) order; FIFO ties resolved by
   scanning in queue order and replacing only on strict improvement. *)
let better (a : Vcpu.t) (b : Vcpu.t) =
  match (a.Vcpu.boosted, b.Vcpu.boosted) with
  | true, false -> true
  | false, true -> false
  | true, true | false, false -> a.Vcpu.credit > b.Vcpu.credit

let rec best_from ~under (best : Vcpu.t option) = function
  | None -> best
  | Some n ->
    let v = n.v in
    let best =
      if not (Vcpu.eligible v && ((not under) || v.Vcpu.credit > 0)) then best
      else
        match best with
        | None -> v.Vcpu.some
        | Some cur -> if better v cur then v.Vcpu.some else best
    in
    best_from ~under best n.next

let head t = best_from ~under:false None t.first

let head_under t = best_from ~under:true None t.first

let rec steal_from ~dst ~under_only ~allowed (best : Vcpu.t option) = function
  | None -> best
  | Some n ->
    let v = n.v in
    let best =
      if
        (not v.Vcpu.boosted) && (not v.Vcpu.parked)
        && ((not under_only) || v.Vcpu.credit > 0)
        && allowed v ~dst
      then
        match best with
        | None -> v.Vcpu.some
        | Some cur ->
          if v.Vcpu.credit > cur.Vcpu.credit then v.Vcpu.some else best
      else best
    in
    steal_from ~dst ~under_only ~allowed best n.next

let steal_candidate t ~dst ~under_only ~allowed best =
  steal_from ~dst ~under_only ~allowed best t.first

let rec has_domain_from domain_id = function
  | None -> false
  | Some n -> n.v.Vcpu.domain_id = domain_id || has_domain_from domain_id n.next

let has_domain t ~domain_id = has_domain_from domain_id t.first

(* Internal-consistency audit for the runtime invariant checker: the
   length counter, tail pointer and per-node state can silently rot if
   a fault path requeues without going through insert/remove. *)
let check t =
  let rec walk prev count = function
    | Some n ->
      if not (Vcpu.is_ready n.v) then
        Error
          (Printf.sprintf "rq %d holds non-Ready vcpu %d" t.pcpu_id n.v.Vcpu.id)
      else if n.v.Vcpu.home <> t.pcpu_id then
        Error
          (Printf.sprintf "rq %d holds vcpu %d homed on %d" t.pcpu_id
             n.v.Vcpu.id n.v.Vcpu.home)
      else walk (Some n) (count + 1) n.next
    | None ->
      if count <> t.len then
        Error
          (Printf.sprintf "rq %d len %d but %d nodes linked" t.pcpu_id t.len
             count)
      else if occupied t <> (count > 0) then
        Error
          (Printf.sprintf "rq %d occupancy bit %b but %d nodes linked"
             t.pcpu_id (occupied t) count)
      else begin
        match (t.last, prev) with
        | None, None -> Ok ()
        | Some l, Some p when l == p -> Ok ()
        | _ -> Error (Printf.sprintf "rq %d tail pointer mismatch" t.pcpu_id)
      end
  in
  walk None 0 t.first

let find_domain t ~domain_id =
  List.rev
    (fold t ~init:[] ~f:(fun acc v ->
         if v.Vcpu.domain_id = domain_id then v :: acc else acc))
