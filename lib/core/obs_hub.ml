(* Scenarios built with observability on register themselves here so
   the CLI can export traces/metrics after a run that constructed its
   scenarios deep inside an experiment. Drain order is by label, not
   registration order: parallel Pool jobs register from several
   domains, and sorting keeps exports deterministic at any -j. *)

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

let sorted l = List.stable_sort (fun a b -> compare a.label b.label) l

let entries () = Mutex.protect mutex (fun () -> sorted !store)

let drain () =
  Mutex.protect mutex (fun () ->
      let l = !store in
      store := [];
      sorted l)

let clear () = Mutex.protect mutex (fun () -> store := [])

(* Paths of written exports, newest first; registry records drain
   them to carry pointers at the artifacts of their invocation. *)
let export_store : string list ref = ref []

let note_export p =
  Mutex.protect mutex (fun () -> export_store := p :: !export_store)

let exports () = Mutex.protect mutex (fun () -> List.rev !export_store)

let drain_exports () =
  Mutex.protect mutex (fun () ->
      let l = !export_store in
      export_store := [];
      List.rev l)

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
    (Sim_obs.Json.Obj
       (List.map
          (fun e ->
            ( e.label,
              Sim_obs.Metrics.to_json (Sim_obs.Metrics.snapshot e.metrics) ))
          entries))
