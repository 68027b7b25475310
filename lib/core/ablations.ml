open Sim_stats

type t = Experiments.t

let note fmt = Printf.ksprintf (fun s -> s) fmt

(* All ablations measure LU on a single capped VM — the paper's
   headline scenario — unless stated otherwise. *)
let lu_runtime config ~sched ~weight =
  Experiments.nas_runtime config ~sched ~bench:Sim_workloads.Nas.LU ~weight

let lu_baseline config = lu_runtime config ~sched:Config.Credit ~weight:256

(* Fan a list of named runs out over Pool worker domains: every thunk
   builds its own scenario from an immutable Config, so runs are
   independent jobs whose results fold back in input order. *)
let par_runs runs =
  List.combine (List.map fst runs)
    (Pool.map (fun thunk -> thunk ()) (List.map snd runs))

(* Prepend the 100%-online Credit baseline to the fan-out so it runs
   as one more parallel job, then hand [k] the base and the variants. *)
let with_baseline config runs k =
  match par_runs (("baseline", fun () -> lu_baseline config) :: runs) with
  | (_, base) :: variants -> k base variants
  | [] -> assert false

let slowdown_series ~base ~label runs =
  Series.make ~label ~x_name:"variant index" ~y_name:"slowdown vs 100%"
    (List.mapi (fun i (_, t) -> (float_of_int i, t /. base)) runs)

let variant_note runs =
  note "variants: %s"
    (String.concat ", "
       (List.mapi (fun i (name, _) -> Printf.sprintf "%d=%s" i name) runs))

(* ----- gang mechanisms ----- *)

let gang_variant ?ipi ?solidarity ?continuity name =
  Config.Custom
    ( name,
      Sim_vmm.Sched_gang.make ?ipi ?solidarity ?continuity ~name
        ~should_cosched:(fun d -> d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) )

let ablate_gang config =
  let variants =
    List.map
      (fun (name, sched) ->
        (name, fun () -> lu_runtime config ~sched ~weight:32))
      [
        ("credit", Config.Credit);
        ("asman (all on)", Config.Asman);
        ("no IPI dispatch", gang_variant ~ipi:false "asman-noipi");
        ("no solidarity", gang_variant ~solidarity:false "asman-nosolid");
        ("no continuity", gang_variant ~continuity:false "asman-nocont");
      ]
  in
  with_baseline config variants @@ fun base runs ->
  {
    Experiments.series = [ slowdown_series ~base ~label:"LU @22.2%" runs ];
    expected = [];
    notes =
      [
        variant_note runs;
        "each gang mechanism (IPI dispatch, credit solidarity, slice \
         continuity) should contribute; removing any moves ASMan back \
         toward the Credit baseline";
      ];
  }

(* ----- per-PCPU phase stagger ----- *)

let ablate_stagger config =
  let run ~stagger ~sched () =
    lu_runtime { config with Config.stagger } ~sched ~weight:32
  in
  let variants =
    [
      ("credit, staggered", run ~stagger:true ~sched:Config.Credit);
      ("credit, aligned", run ~stagger:false ~sched:Config.Credit);
      ("asman, staggered", run ~stagger:true ~sched:Config.Asman);
      ("asman, aligned", run ~stagger:false ~sched:Config.Asman);
    ]
  in
  with_baseline config variants @@ fun base runs ->
  {
    Experiments.series = [ slowdown_series ~base ~label:"LU @22.2%" runs ];
    expected = [];
    notes =
      [
        variant_note runs;
        "per-PCPU timer skew is a root cause of sibling-VCPU \
         de-synchronization: aligning all slot clocks should soften the \
         Credit degradation while barely moving ASMan";
      ];
  }

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
  (* Three jobs per grace value: Credit@22.2%, ASMan@22.2% and the
     100% baseline (all under that grace), 15 jobs in one fan-out. *)
  let times =
    Pool.map
      (fun thunk -> thunk ())
      (List.concat_map
         (fun g ->
           let c = config_for g in
           [
             (fun () -> lu_runtime c ~sched:Config.Credit ~weight:32);
             (fun () -> lu_runtime c ~sched:Config.Asman ~weight:32);
             (fun () -> lu_baseline c);
           ])
         graces)
  in
  let rec fold_triples gs ts =
    match (gs, ts) with
    | g :: gs', credit :: asman :: base :: ts' ->
      (g, (credit /. base, asman /. base)) :: fold_triples gs' ts'
    | [], [] -> []
    | _ -> assert false
  in
  let points = fold_triples graces times in
  let series label pick =
    Series.make ~label ~x_name:"spin grace (ms)" ~y_name:"slowdown vs 100%"
      (List.map (fun (g, pair) -> (float_of_int g, pick pair)) points)
  in
  {
    Experiments.series =
      [ series "Credit LU @22.2%" fst; series "ASMan LU @22.2%" snd ];
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
    [
      ( "learned (6 candidates)",
        fun () -> lu_runtime config ~sched:Config.Asman ~weight:32 );
      ( "fixed x = slot/2",
        fun () ->
          lu_runtime (with_candidates config [ slot / 2 ]) ~sched:Config.Asman ~weight:32 );
      ( "fixed x = 4 slots",
        fun () ->
          lu_runtime (with_candidates config [ 4 * slot ]) ~sched:Config.Asman ~weight:32 );
      ( "fixed x = 16 slots",
        fun () ->
          lu_runtime (with_candidates config [ 16 * slot ]) ~sched:Config.Asman ~weight:32 );
    ]
  in
  with_baseline config variants @@ fun base runs ->
  {
    Experiments.series = [ slowdown_series ~base ~label:"LU @22.2%" runs ];
    expected = [];
    notes =
      [
        variant_note runs;
        "a single-candidate estimator degenerates to a fixed coscheduling \
         duration; too short a window under-coschedules (the paper's \
         Figure 6 left case) while the learner should match the best \
         fixed choice without knowing it in advance";
      ];
  }

(* ----- detection threshold ----- *)

let ablate_threshold config =
  let run delta_exp =
    let gp = Config.guest_params config in
    let monitor = { gp.Sim_guest.Kernel.monitor with Sim_guest.Monitor.delta_exp } in
    let config =
      { config with Config.guest_params = Some { gp with Sim_guest.Kernel.monitor = monitor } }
    in
    lu_runtime config ~sched:Config.Asman ~weight:32
  in
  let deltas = [ 16; 18; 20; 22; 24 ] in
  let base, points =
    match
      Pool.map
        (fun thunk -> thunk ())
        ((fun () -> lu_baseline config)
         :: List.map (fun d () -> run d) deltas)
    with
    | base :: times -> (base, List.combine deltas times)
    | [] -> assert false
  in
  {
    Experiments.series =
      [
        Series.make ~label:"ASMan LU @22.2%" ~x_name:"delta (log2 cycles)"
          ~y_name:"slowdown vs 100%"
          (List.map (fun (d, t) -> (float_of_int d, t /. base)) points);
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
  (* Per slice length: Credit, ASMan and that length's own baseline. *)
  let times =
    Pool.map
      (fun thunk -> thunk ())
      (List.concat_map
         (fun n ->
           let c = with_slice n in
           [
             (fun () -> lu_runtime c ~sched:Config.Credit ~weight:32);
             (fun () -> lu_runtime c ~sched:Config.Asman ~weight:32);
             (fun () -> lu_baseline c);
           ])
         slices)
  in
  let rec fold_triples ns ts =
    match (ns, ts) with
    | n :: ns', credit :: asman :: base :: ts' ->
      (Printf.sprintf "credit, %d0 ms slices" n, credit /. base)
      :: (Printf.sprintf "asman, %d0 ms slices" n, asman /. base)
      :: fold_triples ns' ts'
    | [], [] -> []
    | _ -> assert false
  in
  let runs = fold_triples slices times in
  {
    Experiments.series =
      [
        Series.make ~label:"LU @22.2%" ~x_name:"variant index"
          ~y_name:"slowdown vs 100%"
          (List.mapi (fun i (_, v) -> (float_of_int i, v)) runs);
      ];
    expected = [];
    notes =
      [
        variant_note (List.map (fun (n, v) -> (n, v)) runs);
        "Xen allocates PCPUs in 30 ms slices (3 slots); shorter slices \
         change both the baseline degradation and the gangs' burst \
         coherence";
      ];
  }

(* ----- in-VM vs out-of-VM detection ----- *)

let ablate_oov config =
  (* 3 schedulers x 4 online rates = 12 independent jobs. *)
  let specs =
    List.concat_map
      (fun sched ->
        List.map (fun (w, r) -> (sched, w, r)) Experiments.online_rate_points)
      [ Config.Credit; Config.Asman; Config.Asman_oov ]
  in
  let times =
    Pool.map (fun (sched, w, _r) -> lu_runtime config ~sched ~weight:w) specs
  in
  let points =
    List.map2 (fun (sched, _w, r) t -> (Config.sched_name sched, r, t)) specs times
  in
  let series sched label =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"run time (s)"
      (List.filter_map
         (fun (n, r, t) ->
           if n = Config.sched_name sched then Some (r, t) else None)
         points)
  in
  let credit = series Config.Credit "Credit" in
  let asman = series Config.Asman "ASMan (in-VM monitor)" in
  let oov = series Config.Asman_oov "ASMan-OOV (PLE, no guest changes)" in
  let gap =
    match (Series.y_at asman 22.2, Series.y_at oov 22.2) with
    | Some a, Some o when a > 0. -> 100. *. (o -. a) /. a
    | _ -> nan
  in
  {
    Experiments.series = [ credit; asman; oov ];
    expected = [];
    notes =
      [
        note
          "the paper's §7 future work: VCRD detection from outside the VM. \
           The PLE-driven variant needs no guest modification and is within \
           %.1f%% of the in-VM Monitoring Module at 22.2%%" gap;
      ];
  }

(* ----- LLC-aware relocation ----- *)

let ablate_llc config =
  let llc_sched =
    Config.Custom
      ( "asman-llc",
        Sim_vmm.Sched_gang.make ~llc_aware:true ~name:"asman-llc"
          ~should_cosched:(fun d -> d.Sim_vmm.Domain.vcrd = Sim_vmm.Domain.High) )
  in
  (* Four concurrent VMs (the Fig 11b consolidation): gangs scatter
     across sockets, so relocation policy actually matters. *)
  let run sched =
    let nas b =
      Sim_workloads.Nas.workload
        (Sim_workloads.Nas.params b ~freq:(Config.freq config)
           ~scale:config.Config.scale)
    in
    let s =
      Scenario.build config ~sched
        ~vms:
          (List.mapi
             (fun i b ->
               {
                 Scenario.vm_name = Printf.sprintf "V%d" (i + 1);
                 weight = 256;
                 vcpus = 4;
                 workload = Some (nas b);
               })
             [ Sim_workloads.Nas.LU; Sim_workloads.Nas.LU;
               Sim_workloads.Nas.SP; Sim_workloads.Nas.SP ])
    in
    let m = Runner.run_rounds s ~rounds:2 ~max_sec:300. in
    let cross = Sim_hw.Machine.ipis_cross_socket s.Scenario.machine in
    (Runner.mean_round_sec m ~vm:"V1", m.Runner.ipis, cross)
  in
  let (t_plain, ipis_plain, cross_plain), (t_llc, ipis_llc, cross_llc) =
    match Pool.map run [ Config.Asman; llc_sched ] with
    | [ plain; llc ] -> (plain, llc)
    | _ -> assert false
  in
  let pct ipis cross =
    if ipis = 0 then 0. else 100. *. float_of_int cross /. float_of_int ipis
  in
  {
    Experiments.series =
      [
        Series.make ~label:"LU mean round (s), 4-VM consolidation"
          ~x_name:"variant index" ~y_name:"seconds"
          [ (0., t_plain); (1., t_llc) ];
        Series.make ~label:"cross-socket IPI share (%)" ~x_name:"variant index"
          ~y_name:"%"
          [ (0., pct ipis_plain cross_plain); (1., pct ipis_llc cross_llc) ];
      ];
    expected = [];
    notes =
      [
        "variants: 0=asman (topology-blind relocation), 1=asman-llc (relocation prefers the gang's socket)";
        note
          "LLC-aware relocation cuts the cross-socket IPI share from %.0f%% to %.0f%% (cross-socket IPIs pay double latency); run time is nearly unchanged since IPI latency is microseconds against 10 ms slots"
          (pct ipis_plain cross_plain) (pct ipis_llc cross_llc);
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
