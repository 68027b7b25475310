(* Host-speed calibration: a fixed piece of pure OCaml work, independent
   of lib/, timed many times in every run.

   The 2-vCPU VM the baseline was measured on shares its host, and the
   host's load moves every timing of a run together: within ten minutes
   a rep of each workload got 35% faster, and its set-ups (a fraction of
   a millisecond of Scenario.build, timed between reps) by as much. The
   ratio of the two moved 2-6% across runs where either alone moved
   19-33%. This kernel stands in for those set-ups with code the
   benchmarked program cannot change: it builds and walks a small graph
   of records, strings and maps. Dividing a run's times by its median
   kernel time takes out the host's speed of the moment and leaves the
   program's. *)

module Int_map = Map.Make (Int)
module String_map = Map.Make (String)

type node = { id : int; weights : float array; mutable peers : node list }

let nodes = 512

(* Every block is small, so all of them go to the minor heap: a block
   allocated in the major heap can start a major slice mid-sample. *)
let kernel () =
  let by_id, by_name =
    List.fold_left
      (fun (by_id, by_name) id ->
        let n = { id; weights = Array.make 8 (float_of_int id); peers = [] } in
        (Int_map.add id n by_id, String_map.add ("n" ^ string_of_int id) n by_name))
      (Int_map.empty, String_map.empty)
      (List.init nodes Fun.id)
  in
  let s = ref 1 in
  for i = 0 to (4 * nodes) - 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let a = Int_map.find (!s mod nodes) by_id in
    let b = String_map.find ("n" ^ string_of_int (i land (nodes - 1))) by_name in
    a.peers <- b :: a.peers;
    a.weights.(i land 7) <- a.weights.(i land 7) +. b.weights.(i land 7)
  done;
  Int_map.fold (fun k n acc -> acc + (k * List.length n.peers)) by_id 0

(* One timed sample, in seconds. The kernel allocates about 100k words,
   less than the 256k-word minor heap, and starts with it empty, so no
   collection runs inside it: a collection would also trace the
   workload's heap, and the sample would grow with the program's memory
   instead of with the host's speed. *)
let sample () =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* The kernel's median on the 2-vCPU VM the baseline was measured on. *)
let reference_s = 0.001
