type state = Running of int | Ready | Blocked

type hooks = { on_scheduled : unit -> unit; on_preempted : unit -> unit }

let no_hooks = { on_scheduled = (fun () -> ()); on_preempted = (fun () -> ()) }

type t = {
  id : int;
  domain_id : int;
  index : int;
  mutable credit : int;
  mutable state : state;
  mutable home : int;
  mutable boosted : bool;
  mutable parked : bool;
  mutable hooks : hooks;
  mutable online_cycles : int;
  mutable last_dispatch : int;
  mutable dispatches : int;
  mutable migrations : int;
  (* Pending cold-cache cycles from a cross-socket relocation (NUMA
     model); charged as extra consumed time at the next accounting and
     reset. Stays 0 when the NUMA model is off. *)
  mutable reloc_penalty : int;
  mutable some : t option;
}

let make ~id ~domain_id ~index ~home =
  let v =
    {
      id;
      domain_id;
      index;
      credit = 0;
      state = Blocked;
      home;
      boosted = false;
      parked = false;
      hooks = no_hooks;
      online_cycles = 0;
      last_dispatch = 0;
      dispatches = 0;
      migrations = 0;
      reloc_penalty = 0;
      some = None;
    }
  in
  v.some <- Some v;
  v

let set_hooks t hooks = t.hooks <- hooks

let is_running t = match t.state with Running _ -> true | Ready | Blocked -> false

let is_ready t = match t.state with Ready -> true | Running _ | Blocked -> false

let is_blocked t =
  match t.state with Blocked -> true | Running _ | Ready -> false

let eligible t = t.boosted || not t.parked

let running_on t = match t.state with Running p -> Some p | Ready | Blocked -> None
