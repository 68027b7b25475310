(* Jobs close over immutable inputs and run as the tasks of one
   [Sim_engine.Team] window, the worker runtime under [Fabric.run]
   too; each result lands in the array slot of its input index, so
   [map] preserves order no matter which worker finishes first.
   Worker exceptions are captured per slot and the first one (in
   input order) is re-raised after the team joins. The first failure
   also sets a stop flag: jobs not yet started are skipped (in-flight
   jobs finish normally). *)

exception
  Job_timeout of { index : int; elapsed_sec : float; limit_sec : float }

let () =
  Printexc.register_printer (function
    | Job_timeout { index; elapsed_sec; limit_sec } ->
      Some
        (Printf.sprintf
           "Pool.Job_timeout (job %d took %.1f s, limit %.1f s)" index
           elapsed_sec limit_sec)
    | _ -> None)

(* ----- worker-count knob (-j / ASMAN_JOBS) ----- *)

let env_jobs () =
  match Sys.getenv_opt "ASMAN_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* 0 = unset: fall back to [default_jobs] at each call. *)
let current_jobs = Atomic.make 0

let set_jobs n = Atomic.set current_jobs (max 1 n)

let jobs () =
  match Atomic.get current_jobs with 0 -> default_jobs () | n -> n

(* ----- per-job wall-time accounting ----- *)

type job_timing = { index : int; wall_sec : float }

type stats = {
  jobs_used : int;
  timings : job_timing list;
  busy_sec : float;
}

let acc_mutex = Mutex.create ()

(* Reversed completion order; re-reversed in [accounting]. *)
let acc_timings : job_timing list ref = ref []

let acc_jobs_used = ref 1

let reset_accounting () =
  Mutex.protect acc_mutex (fun () ->
      acc_timings := [];
      acc_jobs_used := 1)

let record_timing index wall_sec =
  Mutex.protect acc_mutex (fun () ->
      acc_timings := { index; wall_sec } :: !acc_timings)

let note_jobs_used k =
  Mutex.protect acc_mutex (fun () ->
      if k > !acc_jobs_used then acc_jobs_used := k)

let accounting () =
  Mutex.protect acc_mutex (fun () ->
      let timings = List.rev !acc_timings in
      {
        jobs_used = !acc_jobs_used;
        timings;
        busy_sec = List.fold_left (fun s t -> s +. t.wall_sec) 0. timings;
      })

let speedup s ~wall_sec =
  if s.timings = [] then None
  else Some (if wall_sec > 0. then s.busy_sec /. wall_sec else 1.)

(* ----- parallel map ----- *)

let now () = Unix.gettimeofday ()

(* Jobs are plain OCaml compute on a domain, so a stuck job cannot be
   interrupted: the timeout is checked when the job returns, turning
   an overlong (but completed) job into a [Job_timeout] error. *)
let run_job ?timeout_sec ~on_error f results i x =
  let t0 = now () in
  let r =
    match f x with
    | y -> Ok y
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let elapsed = now () -. t0 in
  let r =
    match (r, timeout_sec) with
    | Ok _, Some limit when elapsed > limit ->
      Error
        ( Job_timeout { index = i; elapsed_sec = elapsed; limit_sec = limit },
          Printexc.get_callstack 0 )
    | _ -> r
  in
  results.(i) <- Some r;
  record_timing i elapsed;
  match r with Error _ -> on_error () | Ok _ -> ()

let map ?jobs:requested ?timeout_sec f xs =
  match xs with
  | [] -> []
  | _ ->
    let n = List.length xs in
    let k =
      let want = match requested with Some j -> j | None -> jobs () in
      max 1 (min want n)
    in
    note_jobs_used k;
    let input = Array.of_list xs in
    let results = Array.make n None in
    let stop = Atomic.make false in
    let work i ~limit:_ =
      if not (Atomic.get stop) then
        run_job ?timeout_sec
          ~on_error:(fun () -> Atomic.set stop true)
          f results i input.(i)
    in
    let team = Sim_engine.Team.create ~workers:k ~tasks:n ~work in
    Sim_engine.Team.window team ~limit:0;
    Sim_engine.Team.shutdown team;
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list
      (Array.map
         (function Some (Ok y) -> y | Some (Error _) | None -> assert false)
         results)
