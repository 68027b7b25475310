(* Conservative windowed coordination of full Engine members — the
   decoupled-VMM execution core.

   The fabric couples N complete {!Engine} instances (each carrying
   its own clock, RNG, trace and, above it, a whole VMM sub-host) and
   advances them in lockstep conservative windows on a {!Team} of
   worker domains:

     1. flush every member's {!Mailbox} into its queue, in
        (time, src, seq) order;
     2. t_min   := min over members of Engine.next_time;
     3. limit   := t_min + lookahead - 1 (inclusive); every member
        drains [Engine.run ~until:limit] concurrently, lock-free;
     4. repeat until a stop condition holds, the [until] horizon is
        passed, or every queue is empty.

   Safety: {!post} requires [time >= src clock + lookahead], and a
   draining member's clock stays <= limit < t_min + lookahead, so no
   message posted during a window can land inside it; holding mail until the next flush
   reorders nothing any member could have observed. Member event
   streams therefore depend only on the member partition and the
   message contents — never on the worker count — which
   {!fingerprint}/{!digest} check cheaply via the engines' rolling
   stream fingerprints. *)

type t = {
  members : Engine.t array;
  lookahead : int;
  inboxes : Mailbox.t array;
  (* Prebuilt flush sinks (schedule into the member's queue): one
     closure per member for the fabric's lifetime. *)
  sinks : (time:int -> (unit -> unit) -> unit) array;
  out_seq : int array;  (* per-src sequence counters *)
  mutable windows : int;
  mutable cross_posts : int;
  mutable max_window_mail : int;
}

let create ~lookahead members =
  if Array.length members = 0 then invalid_arg "Fabric.create: no members";
  if lookahead < 1 then invalid_arg "Fabric.create: lookahead < 1";
  {
    members;
    lookahead;
    inboxes = Array.map (fun _ -> Mailbox.create ()) members;
    sinks =
      Array.map
        (fun m ~time act -> ignore (Engine.schedule_at m ~time act))
        members;
    out_seq = Array.make (Array.length members) 0;
    windows = 0;
    cross_posts = 0;
    max_window_mail = 0;
  }

let members t = Array.length t.members
let member t i = t.members.(i)

let post t ~src ~dst ~time action =
  let now = Engine.now t.members.(src) in
  if time < now + t.lookahead then
    invalid_arg
      (Printf.sprintf
         "Fabric.post: time %d violates lookahead (member %d clock %d + %d)"
         time src now t.lookahead);
  let seq = t.out_seq.(src) in
  t.out_seq.(src) <- seq + 1;
  Mailbox.post t.inboxes.(dst) ~time ~src ~seq action

(* Coordinator-only, between windows. *)
let deliver t =
  let delivered = ref 0 in
  Array.iteri
    (fun i inbox -> delivered := !delivered + Mailbox.flush inbox t.sinks.(i))
    t.inboxes;
  t.cross_posts <- t.cross_posts + !delivered;
  if !delivered > t.max_window_mail then t.max_window_mail <- !delivered

(* Earliest pending fire time over the members. The fold carries a
   bare int ([max_int]: nothing pending yet), not an option rebuilt at
   every member. *)
let next_global t =
  let t_min =
    Array.fold_left
      (fun acc m ->
        match Engine.next_time m with
        | Some nt when nt < acc -> nt
        | _ -> acc)
      max_int t.members
  in
  if t_min = max_int then None else Some t_min

let workers ?workers t =
  let n = Array.length t.members in
  let w =
    match workers with
    | Some w -> w
    | None -> Domain.recommended_domain_count ()
  in
  max 1 (min w n)

let run ?workers:requested ?until ?(stop = fun () -> false) t =
  let n = Array.length t.members in
  let workers = workers ?workers:requested t in
  let finish () =
    match until with
    | None -> ()
    | Some u ->
      (* Clamp every member clock to the horizon (drains nothing: the
         earliest pending event is already beyond [u]). *)
      Array.iter (fun m -> Engine.run ~until:u m) t.members
  in
  let tm =
    Team.create ~workers ~tasks:n ~work:(fun i ~limit ->
        Engine.run ~until:limit t.members.(i))
  in
  let rec loop () =
    deliver t;
    (* Stop flags are written by member events during the previous
       window; the Team barrier's mutex transitions order those writes
       before this read. Stopping between windows keeps the stop point
       deterministic: window boundaries derive from event times. *)
    if stop () then ()
    else
      match next_global t with
      | None -> finish ()
      | Some t_min
        when (match until with Some u -> t_min > u | None -> false) ->
        finish ()
      | Some t_min ->
        let limit =
          let l = t_min + t.lookahead - 1 in
          match until with Some u -> min l u | None -> l
        in
        t.windows <- t.windows + 1;
        Team.window tm ~limit;
        loop ()
  in
  match loop () with
  | () -> Team.shutdown tm
  | exception e ->
    Team.shutdown tm;
    raise e

let windows t = t.windows
let cross_posts t = t.cross_posts
let max_window_mail t = t.max_window_mail

let events_fired t =
  Array.fold_left (fun acc m -> acc + Engine.events_fired m) 0 t.members

let fingerprint t =
  let b = Buffer.create (16 * Array.length t.members) in
  Buffer.add_string b (Printf.sprintf "w%d" t.windows);
  Array.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf "|m%d:%d@%d:%08x" i (Engine.events_fired m)
           (Engine.now m)
           (Engine.stream_fp m land 0xFFFFFFFF)))
    t.members;
  Buffer.contents b

let digest t =
  Array.fold_left
    (fun acc m ->
      ((acc * 1000003) + (Engine.stream_fp m lxor Engine.events_fired m))
      land max_int)
    t.windows t.members
