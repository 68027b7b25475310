(* Tests for the workload models. *)

open Sim_workloads

let freq = Sim_engine.Units.ghz_f 2.33

(* ----- NAS ----- *)

let test_nas_names () =
  Alcotest.(check int) "seven benchmarks" 7 (List.length Nas.all);
  List.iter
    (fun b ->
      match Nas.of_name (Nas.name b) with
      | Some b' -> Alcotest.(check string) "roundtrip" (Nas.name b) (Nas.name b')
      | None -> Alcotest.fail "name roundtrip failed")
    Nas.all;
  Alcotest.(check bool) "lowercase accepted" true (Nas.of_name "lu" = Some Nas.LU);
  Alcotest.(check bool) "unknown" true (Nas.of_name "zz" = None)

let test_nas_scale () =
  let full = Nas.params Nas.LU ~freq ~scale:1.0 in
  let half = Nas.params Nas.LU ~freq ~scale:0.5 in
  Alcotest.(check bool) "iters scale" true
    (abs (half.Nas.iters * 2 - full.Nas.iters) <= 2);
  Alcotest.(check int) "phase length unchanged" full.Nas.phase_compute
    half.Nas.phase_compute;
  let tiny = Nas.params Nas.LU ~freq ~scale:0.0001 in
  Alcotest.(check bool) "iters floor" true (tiny.Nas.iters >= 2);
  let raised =
    try ignore (Nas.params Nas.LU ~freq ~scale:0.); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero scale" true raised

let test_nas_workload_structure () =
  let p = Nas.params Nas.LU ~freq ~scale:0.1 in
  let w = Nas.workload ~threads:4 p in
  Alcotest.(check int) "threads" 4 (Workload.thread_count w);
  Alcotest.(check bool) "concurrent" true (w.Workload.kind = Workload.Concurrent);
  Alcotest.(check int) "barriers" p.Nas.phases_per_iter
    (List.length w.Workload.barriers);
  List.iter
    (fun (_, parties) -> Alcotest.(check int) "parties" 4 parties)
    w.Workload.barriers;
  (* All threads share one program shape. *)
  List.iter
    (fun spec ->
      Alcotest.(check bool) "restart for repeated rounds" true
        spec.Workload.restart)
    w.Workload.threads

let test_nas_sync_signatures () =
  (* EP must be far coarser than CG (sync ops per unit of compute). *)
  let density b =
    let p = Nas.params b ~freq ~scale:1.0 in
    float_of_int (p.Nas.phases_per_iter * (p.Nas.locks_per_phase + 1))
    /. Sim_engine.Units.sec_of_cycles freq
         (p.Nas.phases_per_iter * p.Nas.phase_compute)
  in
  Alcotest.(check bool) "EP coarsest" true (density Nas.EP < density Nas.CG /. 10.);
  Alcotest.(check bool) "LU sync-heavy" true (density Nas.LU > density Nas.BT)

let test_nas_ideal_runtime () =
  let sec = Nas.ideal_runtime_sec Nas.LU ~freq ~scale:0.1 in
  Alcotest.(check bool) "in range" true (sec > 0.2 && sec < 0.5)

(* ----- SPEC CPU ----- *)

let test_speccpu () =
  let gcc = Speccpu.params Speccpu.Gcc ~freq ~scale:1.0 in
  let bzip2 = Speccpu.params Speccpu.Bzip2 ~freq ~scale:1.0 in
  Alcotest.(check bool) "bzip2 longer" true (bzip2.Speccpu.chunks > gcc.Speccpu.chunks);
  let w = Speccpu.workload ~copies:4 gcc in
  Alcotest.(check int) "four copies" 4 (Workload.thread_count w);
  Alcotest.(check bool) "throughput kind" true
    (w.Workload.kind = Workload.Throughput);
  Alcotest.(check bool) "no sync objects" true
    (w.Workload.barriers = [] && w.Workload.semaphores = []);
  List.iter
    (fun spec ->
      Alcotest.(check (list int)) "no locks" []
        (Sim_guest.Program.locks_referenced spec.Workload.program))
    w.Workload.threads

(* ----- SPECjbb ----- *)

let test_specjbb_structure () =
  let p = Specjbb.default_params ~freq ~warehouses:6 in
  let w = Specjbb.workload ~vcpus:4 p in
  Alcotest.(check int) "six warehouse threads" 6 (Workload.thread_count w);
  (* Warehouses spread over the four VCPUs. *)
  let affinities =
    List.map (fun s -> s.Workload.affinity) w.Workload.threads
  in
  Alcotest.(check (list int)) "round robin affinity" [ 0; 1; 2; 3; 0; 1 ] affinities;
  List.iter
    (fun spec ->
      let locks = Sim_guest.Program.locks_referenced spec.Workload.program in
      Alcotest.(check bool) "uses the hot lock set" true
        (locks <> [] && List.for_all (fun l -> l < p.Specjbb.hot_locks) locks))
    w.Workload.threads

let test_specjbb_score () =
  let entries = [ (1, 10.); (3, 20.); (4, 30.); (8, 50.) ] in
  Alcotest.(check (float 1e-9)) "mean of >= 4 warehouses" 40.
    (Specjbb.score entries ~vcpus:4);
  let raised =
    try ignore (Specjbb.score [ (1, 10.) ] ~vcpus:4); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "no qualifying" true raised

(* ----- workload installation ----- *)

let test_install () =
  let config = Asman.Config.with_scale Asman.Config.default 0.05 in
  let workload =
    Nas.workload (Nas.params Nas.MG ~freq:(Asman.Config.freq config) ~scale:0.05)
  in
  let s =
    Asman.Scenario.build config ~sched:Asman.Config.Credit
      ~vms:
        [ { Asman.Scenario.vm_name = "V"; weight = 256; vcpus = 4;
            workload = Some workload } ]
  in
  let inst = Asman.Scenario.find_vm s "V" in
  match inst.Asman.Scenario.kernel with
  | Some k ->
    Alcotest.(check int) "threads installed" 4
      (List.length (Sim_guest.Kernel.threads k));
    Alcotest.(check int) "barriers installed"
      (List.length workload.Workload.barriers)
      (List.length (Sim_guest.Kernel.barrier_stats k))
  | None -> Alcotest.fail "no kernel"

let test_critical_path () =
  let w =
    Synthetic.compute_only ~threads:3 ~chunks:2 ~chunk_cycles:1000 ()
  in
  Alcotest.(check int) "critical path" 2000 (Workload.critical_path_cycles w);
  Alcotest.(check int) "total" 6000 (Workload.total_compute_cycles w)

let test_random_program_well_formed () =
  let rng = Sim_engine.Rng.create 5L in
  for _ = 1 to 20 do
    let p = Synthetic.random_program rng ~ops:30 ~nlocks:3 ~max_compute:1000 in
    (* Locks appear in balanced Lock/Compute/Unlock triples: the
       cursor stream must alternate lock/unlock per lock id. *)
    let held = Hashtbl.create 4 in
    let r = Sim_engine.Rng.create 6L in
    let c = Sim_guest.Program.cursor p in
    let rec walk () =
      match Sim_guest.Program.next c ~rng:r with
      | Sim_guest.Program.I_end -> ()
      | Sim_guest.Program.I_lock ->
        let l = Sim_guest.Program.operand c in
        if Hashtbl.mem held l then Alcotest.fail "re-lock while held";
        Hashtbl.replace held l ();
        walk ()
      | Sim_guest.Program.I_unlock ->
        let l = Sim_guest.Program.operand c in
        if not (Hashtbl.mem held l) then Alcotest.fail "unlock without lock";
        Hashtbl.remove held l;
        walk ()
      | _ -> walk ()
    in
    walk ();
    Alcotest.(check int) "all released" 0 (Hashtbl.length held)
  done

let suite =
  [
    Alcotest.test_case "nas names" `Quick test_nas_names;
    Alcotest.test_case "nas scale" `Quick test_nas_scale;
    Alcotest.test_case "nas workload structure" `Quick test_nas_workload_structure;
    Alcotest.test_case "nas sync signatures" `Quick test_nas_sync_signatures;
    Alcotest.test_case "nas ideal runtime" `Quick test_nas_ideal_runtime;
    Alcotest.test_case "speccpu" `Quick test_speccpu;
    Alcotest.test_case "specjbb structure" `Quick test_specjbb_structure;
    Alcotest.test_case "specjbb score" `Quick test_specjbb_score;
    Alcotest.test_case "install" `Quick test_install;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "random program" `Quick test_random_program_well_formed;
  ]
