(* Environment capture: git identity and timestamps. Shelling out to
   git happens at most twice per process (sha + dirty) and never on a
   simulation path. *)

let command_line cmd =
  (* [Unix.open_process_in] goes through /bin/sh; 2>/dev/null keeps
     "not a git repository" noise off the user's terminal. *)
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    let status = Unix.close_process_in ic in
    (match (status, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None)

let git_cache = ref None

let git_info () =
  match !git_cache with
  | Some info -> info
  | None ->
    let info =
      match command_line "git rev-parse HEAD" with
      | None -> None
      | Some sha ->
        (* `git status --porcelain` prints nothing when clean; a
           first line means tracked or untracked changes. Restrict to
           tracked files (-uno): scratch outputs in the tree should
           not mark a run dirty. *)
        let dirty =
          command_line "git status --porcelain -uno" <> None
        in
        Some (sha, dirty)
    in
    git_cache := Some info;
    info

let timestamp () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec
