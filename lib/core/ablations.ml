open Sim_stats

type t = Experiments.t

(* All ablations measure LU on a single capped VM — the paper's
   headline scenario — unless stated otherwise. *)
let lu_runtime config ~sched ~weight =
  Experiments.nas_runtime config ~sched ~bench:Sim_workloads.Nas.LU ~weight

(* LU at 22.2% online under each keyed (config, scheduler) variant
   and the 100%-online Credit baseline under [config], as one sweep
   with the baseline first; returns [(key, slowdown against the
   baseline)] in variant order. *)
let variant_slowdowns config variants =
  let time =
    Experiments.sweep
      (function
        | None -> lu_runtime config ~sched:Config.Credit ~weight:256
        | Some key ->
          let config, sched = List.assoc key variants in
          lu_runtime config ~sched ~weight:32)
      (None :: List.map (fun (key, _) -> Some key) variants)
  in
  List.map (fun (key, _) -> (key, time (Some key) /. time None)) variants

(* The outcome of a study over named variants: each one's slowdown at
   its index, a note naming the indices, then [why]. *)
let variant_outcome runs ~why =
  {
    Experiments.series =
      [
        Series.make ~label:"LU @22.2%" ~x_name:"variant index"
          ~y_name:"slowdown vs 100%"
          (List.mapi (fun i (_, s) -> (float_of_int i, s)) runs);
      ];
    expected = [];
    notes =
      [
        Printf.sprintf "variants: %s"
          (String.concat ", "
             (List.mapi (fun i (name, _) -> Printf.sprintf "%d=%s" i name) runs));
        why;
      ];
  }

(* ----- gang mechanisms ----- *)

let gang_variant ?ipi ?solidarity ?continuity name =
  Config.Custom
    ( name,
      Sim_vmm.Sched_gang.make ?ipi ?solidarity ?continuity ~name
        ~should_cosched:(fun d -> d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) )

let ablate_gang config =
  let variants =
    List.map
      (fun (name, sched) -> (name, (config, sched)))
      [
        ("credit", Config.Credit);
        ("asman (all on)", Config.Asman);
        ("no IPI dispatch", gang_variant ~ipi:false "asman-noipi");
        ("no solidarity", gang_variant ~solidarity:false "asman-nosolid");
        ("no continuity", gang_variant ~continuity:false "asman-nocont");
      ]
  in
  variant_outcome (variant_slowdowns config variants)
    ~why:
      "each gang mechanism (IPI dispatch, credit solidarity, slice \
       continuity) should contribute; removing any moves ASMan back \
       toward the Credit baseline"

(* ----- per-PCPU phase stagger ----- *)

let ablate_stagger config =
  let variants =
    List.concat_map
      (fun sched ->
        List.map
          (fun (stagger, how) ->
            ( Printf.sprintf "%s, %s" (Config.sched_name sched) how,
              ({ config with Config.stagger }, sched) ))
          [ (true, "staggered"); (false, "aligned") ])
      [ Config.Credit; Config.Asman ]
  in
  variant_outcome (variant_slowdowns config variants)
    ~why:
      "per-PCPU timer skew is a root cause of sibling-VCPU \
       de-synchronization: aligning all slot clocks should soften the \
       Credit degradation while barely moving ASMan"

(* Credit and ASMan at 22.2% online and the 100%-online Credit
   baseline, all under [config_of p], for each swept value [p]: one
   sweep of three jobs per value, keyed by (value, scheduler name,
   weight). Returns the slowdown of the named scheduler at [p]. *)
let per_value_slowdown config_of values =
  let time =
    Experiments.sweep
      (fun (p, name, weight) ->
        lu_runtime (config_of p) ~sched:(Experiments.sched_named name) ~weight)
      (List.concat_map
         (fun p -> [ (p, "credit", 32); (p, "asman", 32); (p, "credit", 256) ])
         values)
  in
  fun name p -> time (p, name, 32) /. time (p, "credit", 256)

(* ----- guest spin grace ----- *)

let ablate_grace config =
  let freq = Config.freq config in
  let config_for grace_ms =
    let gp = Config.guest_params config in
    let gp =
      { gp with Sim_guest.Kernel.spin_grace = Sim_engine.Units.cycles_of_ms freq grace_ms }
    in
    { config with Config.guest_params = Some gp }
  in
  let graces = [ 1; 5; 10; 20; 50 ] in
  let slowdown = per_value_slowdown config_for graces in
  let series label name =
    Series.make ~label ~x_name:"spin grace (ms)" ~y_name:"slowdown vs 100%"
      (List.map (fun g -> (float_of_int g, slowdown name g)) graces)
  in
  {
    Experiments.series =
      [ series "Credit LU @22.2%" "credit"; series "ASMan LU @22.2%" "asman" ];
    expected = [];
    notes =
      [
        "the guest's busy-wait budget before futex-sleeping calibrates how \
         hard Credit degrades (2008-era libgomp spun long); ASMan should \
         stay near the 4.5x fair-share bound across the sweep";
      ];
  }

(* ----- learning vs fixed windows ----- *)

let with_candidates config cycles_list =
  let gp = Config.guest_params config in
  let est =
    {
      gp.Sim_guest.Kernel.monitor.Sim_guest.Monitor.estimator with
      Sim_learn.Estimator.candidates_cycles = Array.of_list cycles_list;
    }
  in
  let monitor = { gp.Sim_guest.Kernel.monitor with Sim_guest.Monitor.estimator = est } in
  { config with Config.guest_params = Some { gp with Sim_guest.Kernel.monitor = monitor } }

let ablate_learning config =
  let slot = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
  let variants =
    List.map
      (fun (name, config) -> (name, (config, Config.Asman)))
      [
        ("learned (6 candidates)", config);
        ("fixed x = slot/2", with_candidates config [ slot / 2 ]);
        ("fixed x = 4 slots", with_candidates config [ 4 * slot ]);
        ("fixed x = 16 slots", with_candidates config [ 16 * slot ]);
      ]
  in
  variant_outcome (variant_slowdowns config variants)
    ~why:
      "a single-candidate estimator degenerates to a fixed coscheduling \
       duration; too short a window under-coschedules (the paper's \
       Figure 6 left case) while the learner should match the best \
       fixed choice without knowing it in advance"

(* ----- detection threshold ----- *)

let ablate_threshold config =
  let with_delta delta_exp =
    let gp = Config.guest_params config in
    let monitor = { gp.Sim_guest.Kernel.monitor with Sim_guest.Monitor.delta_exp } in
    { config with Config.guest_params = Some { gp with Sim_guest.Kernel.monitor = monitor } }
  in
  let deltas = [ 16; 18; 20; 22; 24 ] in
  let runs =
    variant_slowdowns config
      (List.map (fun d -> (d, (with_delta d, Config.Asman))) deltas)
  in
  {
    Experiments.series =
      [
        Series.make ~label:"ASMan LU @22.2%" ~x_name:"delta (log2 cycles)"
          ~y_name:"slowdown vs 100%"
          (List.map (fun (d, s) -> (float_of_int d, s)) runs);
      ];
    expected = [];
    notes =
      [
        "the over-threshold boundary 2^delta (paper: delta = 20) separates \
         ordinary contention from virtualization-induced waits; too high \
         and detection misses stalls, too low and ordinary contention \
         triggers spurious coscheduling";
      ];
  }

(* ----- slice length ----- *)

let ablate_slice config =
  let with_slice n =
    { config with Config.cpu = { config.Config.cpu with Sim_hw.Cpu_model.slots_per_slice = n } }
  in
  let slices = [ 1; 3 ] in
  let slowdown = per_value_slowdown with_slice slices in
  let runs =
    List.concat_map
      (fun n ->
        List.map
          (fun name ->
            (Printf.sprintf "%s, %d0 ms slices" name n, slowdown name n))
          [ "credit"; "asman" ])
      slices
  in
  variant_outcome runs
    ~why:
      "Xen allocates PCPUs in 30 ms slices (3 slots); shorter slices \
       change both the baseline degradation and the gangs' burst \
       coherence"

(* ----- in-VM vs out-of-VM detection ----- *)

let ablate_oov config =
  (* 3 schedulers x 4 online rates = 12 jobs. *)
  let time =
    Experiments.lu_by_rate config
      [ Config.Credit; Config.Asman; Config.Asman_oov ]
  in
  let series name label =
    Experiments.rate_series ~label ~y_name:"run time (s)" (fun w ->
        time (name, w))
  in
  let asman = time ("asman", 32) and oov = time ("asman-oov", 32) in
  {
    Experiments.series =
      [
        series "credit" "Credit";
        series "asman" "ASMan (in-VM monitor)";
        series "asman-oov" "ASMan-OOV (PLE, no guest changes)";
      ];
    expected = [];
    notes =
      [
        Printf.sprintf
          "the paper's §7 future work: VCRD detection from outside the VM. \
           The PLE-driven variant needs no guest modification and is within \
           %.1f%% of the in-VM Monitoring Module at 22.2%%"
          (100. *. (oov -. asman) /. asman);
      ];
  }

(* ----- LLC-aware relocation ----- *)

let ablate_llc config =
  let scheds =
    [
      ("asman", Config.Asman);
      ( "asman-llc",
        Config.Custom
          ( "asman-llc",
            Sim_vmm.Sched_gang.make ~llc_aware:true ~name:"asman-llc"
              ~should_cosched:(fun d ->
                d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) ) );
    ]
  in
  (* Four concurrent VMs (the Fig 11b consolidation): gangs scatter
     across sockets, so relocation policy actually matters. *)
  let run =
    Experiments.sweep
      (fun name ->
        let s =
          Scenario.build config ~sched:(List.assoc name scheds)
            ~vms:
              (List.mapi
                 (fun i b ->
                   Scenario.vm ~name:(Printf.sprintf "V%d" (i + 1))
                     (Experiments.nas_workload config b))
                 [ Sim_workloads.Nas.LU; Sim_workloads.Nas.LU;
                   Sim_workloads.Nas.SP; Sim_workloads.Nas.SP ])
        in
        let m = Runner.run_rounds s ~rounds:2 ~max_sec:300. in
        (m, Sim_hw.Machine.ipis_cross_socket s.Scenario.machine))
      (List.map fst scheds)
  in
  let cross_pct name =
    let m, cross = run name in
    if m.Runner.ipis = 0 then 0.
    else 100. *. float_of_int cross /. float_of_int m.Runner.ipis
  in
  let per_variant ~label ~y_name f =
    Series.make ~label ~x_name:"variant index" ~y_name
      (List.mapi (fun i (name, _) -> (float_of_int i, f name)) scheds)
  in
  {
    Experiments.series =
      [
        per_variant ~label:"LU mean round (s), 4-VM consolidation"
          ~y_name:"seconds" (fun name ->
            Runner.mean_round_sec (fst (run name)) ~vm:"V1");
        per_variant ~label:"cross-socket IPI share (%)" ~y_name:"%" cross_pct;
      ];
    expected = [];
    notes =
      [
        "variants: 0=asman (topology-blind relocation), 1=asman-llc (relocation prefers the gang's socket)";
        Printf.sprintf
          "LLC-aware relocation cuts the cross-socket IPI share from %.0f%% to %.0f%% (cross-socket IPIs pay double latency); run time is nearly unchanged since IPI latency is microseconds against 10 ms slots"
          (cross_pct "asman") (cross_pct "asman-llc");
      ];
  }

let all : t list =
  [
    {
      Experiments.id = "ablate-gang";
      title = "Gang-dispatch mechanisms (IPI / solidarity / continuity)";
      description =
        "Toggle each of the three coscheduling mechanisms off individually";
      run = ablate_gang;
    };
    {
      Experiments.id = "ablate-stagger";
      title = "Per-PCPU slot-clock stagger";
      description = "Aligned vs staggered PCPU timers under Credit and ASMan";
      run = ablate_stagger;
    };
    {
      Experiments.id = "ablate-grace";
      title = "Guest busy-wait grace sweep";
      description = "spin_grace in {1,5,10,20,50} ms: the Credit calibration knob";
      run = ablate_grace;
    };
    {
      Experiments.id = "ablate-learning";
      title = "Roth-Erev estimator vs fixed coscheduling durations";
      description = "Learned window lengths against degenerate single candidates";
      run = ablate_learning;
    };
    {
      Experiments.id = "ablate-threshold";
      title = "Over-threshold exponent delta";
      description = "delta in {16..24} around the paper's delta = 20";
      run = ablate_threshold;
    };
    {
      Experiments.id = "ablate-slice";
      title = "Scheduling slice length";
      description = "10 ms vs Xen's 30 ms PCPU allocation slices";
      run = ablate_slice;
    };
    {
      Experiments.id = "ablate-llc";
      title = "Topology-blind vs LLC-aware gang relocation";
      description =
        "Algorithm 3 relocation preferring PCPUs that share the gang's socket (the paper's future work)";
      run = ablate_llc;
    };
    {
      Experiments.id = "ablate-oov";
      title = "In-VM Monitoring Module vs out-of-VM PLE detection";
      description = "The paper's future-work variant against the prototype";
      run = ablate_oov;
    };
  ]

let find id = List.find_opt (fun (a : t) -> a.Experiments.id = id) all

let ids () = List.map (fun (a : t) -> a.Experiments.id) all
