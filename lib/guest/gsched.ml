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
