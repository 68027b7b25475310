(* Named counters / gauges / histograms registered by subsystem.

   A registry is per-simulation (created by the Vmm), not global, so
   parallel Pool jobs running in separate domains never share one and
   snapshots stay deterministic at any -j. Counters are mutable ints
   bumped on the owner's hot path; gauges are closures evaluated only
   at snapshot time, which is how existing subsystem counters
   (ctx_switches, ipis_sent, ...) join the registry without moving. *)

type key = { subsystem : string; name : string; vm : string option }

let key_compare a b =
  match compare a.subsystem b.subsystem with
  | 0 -> (
    match compare a.name b.name with 0 -> compare a.vm b.vm | c -> c)
  | c -> c

let key_to_string k =
  match k.vm with
  | None -> Printf.sprintf "%s/%s" k.subsystem k.name
  | Some vm -> Printf.sprintf "%s/%s{vm=%s}" k.subsystem k.name vm

type counter = { mutable count : int }

let incr ?(by = 1) c = c.count <- c.count + by

let value c = c.count

(* Log2-bucketed histogram: bucket i counts values v with
   2^(i-1) <= v < 2^i (bucket 0 counts v <= 0 and v = 1 in bucket 1
   per the bits-based rule below). 63 buckets cover every OCaml int. *)
type histogram = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0

let observe h v =
  let b = bucket_of v in
  let b = if b >= Array.length h.buckets then Array.length h.buckets - 1 else b in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

type instrument =
  | Counter of counter
  | Gauge of (unit -> int)
  | Histogram of histogram

type t = { mutable items : (key * instrument) list }

let create () = { items = [] }

let register t key inst =
  (* Last registration wins; keeps re-arming idempotent. *)
  t.items <- (key, inst) :: List.remove_assoc key t.items

let counter t ~subsystem ?vm ~name () =
  let c = { count = 0 } in
  register t { subsystem; name; vm } (Counter c);
  c

let gauge t ~subsystem ?vm ~name f =
  register t { subsystem; name; vm } (Gauge f)

let histogram t ~subsystem ?vm ~name () =
  let h = { buckets = Array.make 63 0; h_count = 0; h_sum = 0; h_max = 0 } in
  register t { subsystem; name; vm } (Histogram h);
  h

(* ----- snapshots ----- *)

type value =
  | Int of int
  | Hist of { count : int; sum : int; max : int; buckets : int array }

type sample = { key : key; value : value }

type snapshot = sample list

let snapshot t : snapshot =
  t.items
  |> List.map (fun (key, inst) ->
         let value =
           match inst with
           | Counter c -> Int c.count
           | Gauge f -> Int (f ())
           | Histogram h ->
             Hist
               { count = h.h_count; sum = h.h_sum; max = h.h_max;
                 buckets = Array.copy h.buckets }
         in
         { key; value })
  |> List.sort (fun a b -> key_compare a.key b.key)

(* Subtract [base] from [snap] pointwise; keys absent from base pass
   through. Histograms don't diff (windowed histograms reset instead),
   so they pass through too. *)
let diff ~base snap =
  let base_int key =
    List.find_map
      (fun s ->
        if key_compare s.key key = 0 then
          match s.value with Int v -> Some v | Hist _ -> None
        else None)
      base
  in
  List.map
    (fun s ->
      match s.value with
      | Int v -> (
        match base_int s.key with
        | Some b -> { s with value = Int (v - b) }
        | None -> s)
      | Hist _ -> s)
    snap

let find snap ~subsystem ?vm ~name () =
  List.find_map
    (fun s ->
      if
        s.key.subsystem = subsystem && s.key.name = name && s.key.vm = vm
      then
        match s.value with Int v -> Some v | Hist _ -> None
      else None)
    snap

let get snap ~subsystem ?vm ~name () =
  match find snap ~subsystem ?vm ~name () with Some v -> v | None -> 0

(* ----- rendering ----- *)

let to_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      match s.value with
      | Int v ->
        Buffer.add_string buf
          (Printf.sprintf "%-48s %12d\n" (key_to_string s.key) v)
      | Hist h ->
        Buffer.add_string buf
          (Printf.sprintf "%-48s count=%d sum=%d max=%d\n"
             (key_to_string s.key) h.count h.sum h.max))
    snap;
  Buffer.contents buf

let to_json snap =
  let sample s =
    let vm =
      match s.key.vm with None -> [] | Some vm -> [ ("vm", Json.String vm) ]
    in
    let value =
      match s.value with
      | Int v -> [ ("value", Json.Int v) ]
      | Hist h ->
        let nonzero =
          Array.to_list h.buckets
          |> List.mapi (fun i c -> (string_of_int i, c))
          |> List.filter_map (fun (i, c) ->
                 if c > 0 then Some (i, Json.Int c) else None)
        in
        [ ("count", Json.Int h.count); ("sum", Json.Int h.sum);
          ("max", Json.Int h.max); ("log2_buckets", Json.Obj nonzero) ]
    in
    Json.Obj
      ((("subsystem", Json.String s.key.subsystem)
       :: ("name", Json.String s.key.name) :: vm)
      @ value)
  in
  Json.Obj [ ("metrics", Json.List (List.map sample snap)) ]
