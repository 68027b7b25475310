(* In-memory span recorder for the traced benchmark run.

   Spans are opened and closed by the benchmark itself around each call
   it makes into a layer's public functions; nothing inside lib/ is
   instrumented. Recording happens on the main domain only (Pool and
   fabric workers run inside library code), so the stack and the span
   list need no locking. With recording off, [with_span] is one branch
   around the call. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  layer : string;
  workload : string;
  start : float;  (* seconds since the recorder was created *)
  stop : float;
}

let enabled = ref false
let workload = ref ""
let origin = Unix.gettimeofday ()
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () -. origin in
    let finish () =
      stack := List.tl !stack;
      spans :=
        {
          id;
          parent;
          name;
          layer;
          workload = !workload;
          start;
          stop = Unix.gettimeofday () -. origin;
        }
        :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* A span's self time is its duration minus the part its direct
   children cover (children never overlap: one recording domain).
   [totals key] sums (calls, total, self) over the spans sharing
   [key span], sorted by descending self time. *)
let totals key =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt covered s.parent) ~default:0. in
      Hashtbl.replace covered s.parent (prev +. (s.stop -. s.start)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value (Hashtbl.find_opt covered s.id) ~default:0. in
      let n, total, self0 =
        Option.value (Hashtbl.find_opt acc (key s)) ~default:(0, 0., 0.)
      in
      Hashtbl.replace acc (key s) (n + 1, total +. dur, self0 +. self))
    !spans;
  List.sort
    (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
    (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let by_layer () = totals (fun s -> s.layer)
let by_name () = totals (fun s -> Printf.sprintf "%s %s %s" s.workload s.layer s.name)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Chrome trace_event JSON: one complete ("X") event per span, in
   microseconds, with the parent id and workload in [args]. *)
let to_chrome () =
  let event s =
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"workload\":%s}}"
      (json_string s.name) (json_string s.layer) (s.start *. 1e6)
      ((s.stop -. s.start) *. 1e6)
      s.id s.parent (json_string s.workload)
  in
  Printf.sprintf "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"}"
    (String.concat ",\n" (List.rev_map event !spans))
