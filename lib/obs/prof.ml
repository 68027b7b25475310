(* Wall-clock self-profiling of the simulator itself: named sections
   accumulating (total seconds, calls). The clock is injected so this
   library needs no unix dependency; callers pass
   Unix.gettimeofday. Mutex-protected because Pool workers in other
   domains time their jobs into the same profiler. *)

type section = { label : string; total_sec : float; calls : int }

type t = {
  clock : unit -> float;
  mu : Mutex.t;
  tbl : (string, float ref * int ref) Hashtbl.t;
}

let create ?(clock = fun () -> 0.) () =
  { clock; mu = Mutex.create (); tbl = Hashtbl.create 16 }

let add t label sec =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.tbl label with
  | Some (total, calls) ->
    total := !total +. sec;
    incr calls
  | None -> Hashtbl.replace t.tbl label (ref sec, ref 1));
  Mutex.unlock t.mu

let time t label f =
  let t0 = t.clock () in
  Fun.protect ~finally:(fun () -> add t label (t.clock () -. t0)) f

let sections t =
  Mutex.lock t.mu;
  let out =
    Hashtbl.fold
      (fun label (total, calls) acc ->
        { label; total_sec = !total; calls = !calls } :: acc)
      t.tbl []
  in
  Mutex.unlock t.mu;
  List.sort (fun a b -> compare a.label b.label) out

let reset t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  Mutex.unlock t.mu

let to_text t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "profile (wall-clock per section):\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-32s %10.3f s  %8d calls\n" s.label s.total_sec
           s.calls))
    (sections t);
  Buffer.contents buf
