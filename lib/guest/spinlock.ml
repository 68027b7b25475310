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

let try_acquire t thread ~now =
  ignore now;
  match (t.owner, t.reserved_for) with
  | None, None ->
    t.owner <- thread.Thread.some;
    t.acquisitions <- t.acquisitions + 1;
    true
  | Some _, _ | _, Some _ -> false

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
  match (t.owner, t.reserved_for) with
  | None, None -> first_online online t.waiters
  | Some _, _ | _, Some _ -> None

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
