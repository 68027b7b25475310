(* Golden printouts: the library renderers' exact text for three
   pinned runs. Each expected text is [asman_cli]'s stdout for the
   command named above it, which prints the renderer's string as is;
   the cluster run's host wall time is masked. A change to a label, a
   format or a column shows up here as a diff of the whole printout. *)

open Asman

let check_text name expected actual =
  Alcotest.(check (list string))
    name
    (String.split_on_char '\n' expected)
    (String.split_on_char '\n' actual)

(* asman_cli run --vm lu --vm gcc --sched asman --rounds 2 --scale 0.02 *)
let single_host =
  {|scheduler: asman   simulated: 0.121 s   events: 3715   ipis: 0

+------------+--------+----------------+--------+----------+----------+------------+
| VM         | rounds | mean round (s) | online | expected | over-thr | vcrd flips |
+------------+--------+----------------+--------+----------+----------+------------+
| V1:LU      | 2      | 0.060          | 1.000  | 0.667    | 0        | 0          |
| V2:176.gcc | 3      | 0.032          | 1.000  | 0.667    | 0        | 0          |
+------------+--------+----------------+--------+----------+----------+------------+
invariant violations: 0
|}

let test_single_host () =
  let config =
    Config.with_work_conserving (Config.with_scale Config.default 0.02) true
  in
  let vms =
    Scenario.numbered_vms config ~weight:256
      [ Scenario.W_nas "LU"; Scenario.W_speccpu "gcc" ]
  in
  let s = Scenario.build config ~sched:Config.Asman ~vms in
  let m = Runner.run_rounds s ~rounds:2 ~max_sec:120. in
  check_text "run printout" single_host (Report.run ~sched:Config.Asman s m)

(* asman_cli run --vm gcc --vm ep --vm gcc --vm ep --vm bzip2 --vm ep
     --topology 2x2 --sim-jobs 2 --rounds 2 --scale 0.05
   (on two cores, so two workers) *)
let decoupled =
  {|scheduler: asman   decoupled: 2 shards x 2 workers   simulated: 4.480 s   events: 5509

+--------------+--------+----------------+--------+----------+----------+------------+------------+-------------+
| VM           | rounds | mean round (s) | online | expected | over-thr | vcrd flips | migrations | final shard |
+--------------+--------+----------------+--------+----------+----------+------------+------------+-------------+
| V1:176.gcc   | 6      | 0.726          | 0.131  | 0.100    | 0        | 0          | 0          | 0           |
| V2:EP        | 2      | 2.014          | 0.170  | 0.100    | 11       | 3          | 1          | 0           |
| V3:176.gcc   | 6      | 0.736          | 0.132  | 0.100    | 0        | 0          | 0          | 0           |
| V4:EP        | 3      | 1.264          | 0.274  | 0.167    | 21       | 3          | 0          | 1           |
| V5:256.bzip2 | 4      | 0.895          | 0.130  | 0.100    | 0        | 0          | 0          | 0           |
| V6:EP        | 2      | 2.235          | 0.162  | 0.167    | 12       | 9          | 0          | 1           |
+--------------+--------+----------------+--------+----------+----------+------------+------------+-------------+
fabric: 448 windows, 224 cross-shard posts (max 3 per window), lookahead 23300000 cycles
steals: 1 requests, 1 grants, 0 nacks, mean latency 46600000 cycles
decoupled digest: a64cf100
|}

let test_decoupled () =
  let config =
    {
      (Config.with_work_conserving (Config.with_scale Config.default 0.05) true)
      with
      Config.topology = Sim_hw.Topology.make ~sockets:2 ~cores_per_socket:2;
      sim_jobs = 2;
    }
  in
  let vms =
    Scenario.numbered_vms config ~weight:256
      Scenario.
        [
          W_speccpu "gcc"; W_nas "EP"; W_speccpu "gcc"; W_nas "EP";
          W_speccpu "bzip2"; W_nas "EP";
        ]
  in
  let d = Decouple.build config ~sched:Config.Asman ~vms in
  let r = Decouple.run ~workers:2 d ~rounds:2 ~max_sec:120. in
  check_text "decoupled printout" decoupled
    (Decouple.render ~sched:Config.Asman d r)

(* asman_cli cluster --hosts 4 --vms 16 --horizon 0.6 --seed 5 --log *)
let cluster =
  {|cluster: 4 hosts (2x4 each), 16 VMs (bimodal lifetimes), policy lifetime, sched asman, 1 workers
  density (VMs/host)       1.230
  p99 stall (ms)           0.876
  mean stall (ms)          0.2222
  stall samples            5737
  stall tail               >=2^10:4754 >=2^15:4665 >=2^20:893 >=2^25:0
  placements               16
  deferrals                0
  evictions                2
  migrations               2
  nacks                    0
  departures               16
  repredictions            6
  sim sec                  0.440
  events                   43006
  windows                  44
  cross posts              72
  wall sec                 (masked)
  digest                   7f23c294
  host 0: peak 4 slots, final []
  host 1: peak 5 slots, final []
  host 2: peak 7 slots, final []
  host 3: peak 8 slots, final []
  @1900771      place vm13 host 0
  @19036512     place vm14 host 1
  @31383452     place vm8 host 2
  @48500771     run vm13 host 0
  @65636512     run vm14 host 1
  @75459782     place vm7 host 3
  @77171588     place vm15 host 1
  @77983452     run vm8 host 2
  @119239488    place vm11 host 3
  @122059782    run vm7 host 3
  @123771588    run vm15 host 1
  @165839488    run vm11 host 3
  @166357205    halt vm13 host 0
  @170047102    place vm4 host 2
  @216647102    run vm4 host 2
  @236257205    depart vm13 host 0
  @238345667    halt vm15 host 1
  @265337561    halt vm14 host 1
  @274662774    halt vm8 host 2
  @279600000    evict vm11 3->0
  @308245667    depart vm15 host 1
  @322411845    place vm10 host 1
  @335237561    depart vm14 host 1
  @343253507    place vm3 host 1
  @344562774    depart vm8 host 2
  @349500000    copy vm11 3->0
  @368292884    halt vm7 host 3
  @369011845    run vm10 host 1
  @389853507    run vm3 host 1
  @402624000    migrated vm11 host 0
  @416925284    halt vm11 host 0
  @422664123    place vm12 host 1
  @426536982    place vm9 host 2
  @438192884    depart vm7 host 3
  @459218733    halt vm4 host 2
  @466000000    evict vm10 1->3
  @469264123    run vm12 host 1
  @473136982    run vm9 host 2
  @486825284    depart vm11 host 0
  @529118733    depart vm4 host 2
  @535900000    copy vm10 1->3
  @552693240    place vm0 host 0
  @559469091    place vm5 host 0
  @565039528    place vm2 host 2
  @574112000    migrated vm10 host 3
  @586988687    place vm1 host 3
  @588133463    halt vm3 host 1
  @588568957    halt vm12 host 1
  @599293240    run vm0 host 0
  @603816863    halt vm10 host 3
  @606069091    run vm5 host 0
  @611639528    run vm2 host 2
  @633588687    run vm1 host 3
  @658033463    depart vm3 host 1
  @658468957    depart vm12 host 1
  @673716863    depart vm10 host 3
  @712914755    halt vm9 host 2
  @723559658    place vm6 host 1
  @770159658    run vm6 host 1
  @770945804    halt vm0 host 0
  @782814755    depart vm9 host 2
  @823067432    halt vm2 host 2
  @840845804    depart vm0 host 0
  @845282561    halt vm5 host 0
  @857643333    halt vm1 host 3
  @892967432    depart vm2 host 2
  @915182561    depart vm5 host 0
  @927543333    depart vm1 host 3
  @944517431    halt vm6 host 1
  @1014417431   depart vm6 host 1
|}

let cluster_run () =
  let open Sim_cluster in
  let config = Config.with_seed Config.default 5L in
  let trace =
    Vtrace.generate ~max_vcpus:(Config.pcpus config) ~seed:5L ~vms:16
      ~dist:Vtrace.Bimodal ~horizon_sec:0.6 ()
  in
  let t =
    Cluster.build config ~sched:Config.Asman
      ~policy:Placement.Lifetime_aware ~hosts:4 ~trace
  in
  (config, Cluster.run ~workers:1 t ~horizon_sec:0.6)

let test_cluster () =
  let config, r = cluster_run () in
  let mask line =
    if String.starts_with ~prefix:"  wall sec " line then
      "  wall sec                 (masked)"
    else line
  in
  let text =
    Sim_cluster.Cluster.render ~log:true config ~sched:Config.Asman
      ~dist:Sim_cluster.Vtrace.Bimodal r
  in
  check_text "cluster printout" cluster
    (String.concat "\n" (List.map mask (String.split_on_char '\n' text)))

(* The run record's "cluster" section: nine recorded rows, in the
   order records have always listed them, each carrying the value its
   printed row shows. *)
let test_cluster_record_section () =
  let _, r = cluster_run () in
  let section = Sim_cluster.Cluster.report_metrics r in
  Alcotest.(check (list string))
    "section keys"
    [
      "density"; "p99_stall_ms"; "mean_stall_ms"; "migrations"; "evictions";
      "deferrals"; "departures"; "placements"; "repredictions";
    ]
    (List.map fst section);
  List.iter
    (fun (_, entry, _) ->
      Option.iter
        (fun (k, v) ->
          Alcotest.(check (float 0.)) k v (List.assoc k section))
        entry)
    (Sim_cluster.Cluster.report_rows r)

let suite =
  [
    Alcotest.test_case "single host run printout" `Quick test_single_host;
    Alcotest.test_case "decoupled steal run printout" `Quick test_decoupled;
    Alcotest.test_case "cluster printout" `Quick test_cluster;
    Alcotest.test_case "cluster record section" `Quick
      test_cluster_record_section;
  ]
