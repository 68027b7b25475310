(* runs/ directory management. Records are pretty-printed JSON (they
   are occasionally committed or diffed by hand) named by their id. *)

module Json = Sim_obs.Json

let dir () =
  match Sys.getenv_opt "ASMAN_RUNS" with
  | Some "" -> None
  | Some d -> Some d
  | None -> Some "runs"

let id_counter = ref 0

let fresh_id ~kind =
  let tm = Unix.localtime (Unix.time ()) in
  let stamp =
    Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  incr id_counter;
  let base = Printf.sprintf "%s-%s-%d" stamp kind (Unix.getpid ()) in
  if !id_counter = 1 then base else Printf.sprintf "%s-%d" base !id_counter

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write path r =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~indent:true (Record.to_json r)))

let save ?dir:d (r : Record.t) =
  let d =
    match d with
    | Some d -> d
    | None -> (
      match dir () with
      | Some d -> d
      | None -> invalid_arg "Registry.save: recording disabled (ASMAN_RUNS=)")
  in
  mkdir_p d;
  let path = Filename.concat d (r.Record.id ^ ".json") in
  write path r;
  path

let save_if_enabled r =
  match dir () with None -> None | Some d -> Some (save ~dir:d r)

let publish ?json r =
  Option.iter
    (fun path ->
      write path r;
      Printf.eprintf "run record written to %s\n%!" path)
    json;
  match save_if_enabled r with
  | Some path -> Printf.eprintf "run recorded: %s\n%!" path
  | None -> ()
  | exception Sys_error msg -> Printf.eprintf "registry: %s\n%!" msg

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let load path = Record.of_json (Json.of_string (read_file path))

let list ?dir:d () =
  let d = match d with Some d -> d | None -> Option.value (dir ()) ~default:"runs" in
  let files = try Sys.readdir d with Sys_error _ -> [||] in
  let records =
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.filter_map (fun f ->
           match load (Filename.concat d f) with
           | r -> Some r
           | exception (Json.Parse_error _ | Sys_error _) -> None)
  in
  List.sort
    (fun (a : Record.t) (b : Record.t) ->
      compare (a.Record.date, a.Record.id) (b.Record.date, b.Record.id))
    records

let resolve ?dir:d s =
  if Sys.file_exists s && not (Sys.is_directory s) then load s
  else begin
    let d =
      match d with Some d -> d | None -> Option.value (dir ()) ~default:"runs"
    in
    let candidate = Filename.concat d (s ^ ".json") in
    if Sys.file_exists candidate then load candidate
    else
      raise
        (Sys_error
           (Printf.sprintf "%s: not a file, and %s does not exist" s candidate))
  end
