(* Scenarios built with [Config.obs.metrics] on publish themselves here
   so the CLI can export traces/metrics after a run that constructed
   its scenarios deep inside an experiment. Parallel Pool jobs publish
   from several domains, so nothing here depends on publication order:
   entries are sorted by label, and entries that share a label (an
   ablation's variants differ only in their config) are ordered by
   their content and numbered [#2], [#3]. Exports are therefore
   byte-identical at any -j. *)

type entry = {
  label : string;
  freq_khz : int;
  pcpus : int;
  vm_names : (int * string) list;
  trace : Sim_obs.Trace.t;
  metrics : Sim_obs.Metrics.t;
}

let mutex = Mutex.create ()
let store : entry list ref = ref []

let register e = Mutex.protect mutex (fun () -> store := e :: !store)

let snapshot_json e =
  Sim_obs.Metrics.to_json (Sim_obs.Metrics.snapshot e.metrics)

(* Deterministic order among entries sharing a label: the metrics
   snapshot, then the trace itself (both plain data). Computed only
   for such groups. *)
let content_key e =
  (Sim_obs.Metrics.snapshot e.metrics, Sim_obs.Trace.entries e.trace)

let number = function
  | [ e ] -> [ e ]
  | group ->
    List.map (fun e -> (content_key e, e)) group
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.mapi (fun i (_, e) ->
           if i = 0 then e
           else { e with label = Printf.sprintf "%s#%d" e.label (i + 1) })

(* Runs of equal labels in a label-sorted list. *)
let rec groups = function
  | [] -> []
  | e :: rest -> (
    match groups rest with
    | (x :: _ as g) :: gs when x.label = e.label -> (e :: g) :: gs
    | gs -> [ e ] :: gs)

let drain () =
  let l =
    Mutex.protect mutex (fun () ->
        let l = !store in
        store := [];
        l)
  in
  List.sort (fun a b -> compare a.label b.label) l
  |> groups |> List.concat_map number

let chrome_json entries =
  let events = Buffer.create 65536 in
  List.iteri
    (fun i e ->
      Sim_obs.Trace.chrome_events_into events ~pid:(i + 1)
        ~process_name:e.label ~vm_names:e.vm_names
        ~freq_hz:(e.freq_khz * 1000) ~pcpus:e.pcpus e.trace)
    entries;
  Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
    (Buffer.contents events)

let metrics_text entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "== %s ==\n" e.label);
      Buffer.add_string buf (Sim_obs.Metrics.to_text (Sim_obs.Metrics.snapshot e.metrics)))
    entries;
  Buffer.contents buf

let metrics_json entries =
  Sim_obs.Json.to_string ~indent:true
    (Sim_obs.Json.Obj (List.map (fun e -> (e.label, snapshot_json e)) entries))
