open Sim_stats

type outcome = {
  series : Series.t list;
  expected : Series.t list;
  notes : string list;
}

type t = {
  id : string;
  title : string;
  description : string;
  run : Config.t -> outcome;
}

let online_rate_points = [ (256, 100.); (128, 66.7); (64, 40.); (32, 22.2) ]

let weights = List.map fst online_rate_points

(* ----- shared building blocks ----- *)

(* Every data point below is an independent job: it builds its own
   Scenario — hence its own Engine, RNG and guest state — from the
   shared immutable Config, so fanning jobs out over Pool worker
   domains shares no mutable state and the outcome is identical at any
   worker count. An experiment declares its points as keys and reads
   each result back by its key. *)
let sweep f keys =
  let table = List.combine keys (Pool.map f keys) in
  fun key -> List.assoc key table

let sched_named name = Option.get (Config.sched_of_name name)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let single_vm_scenario config ~sched ~weight ~workload =
  let config = Config.with_work_conserving config false in
  Scenario.build config ~sched ~vms:[ Scenario.vm ~weight ~name:"V1" workload ]

let nas_workload config bench =
  Sim_workloads.Nas.workload
    (Sim_workloads.Nas.params bench ~freq:(Config.freq config)
       ~scale:config.Config.scale)

(* Generous wall-clock cap: the slowest single-VM runs are ~5x the
   ideal time at a 22.2% online rate. *)
let max_sec_for config bench =
  let ideal =
    Sim_workloads.Nas.ideal_runtime_sec bench ~freq:(Config.freq config)
      ~scale:config.Config.scale
  in
  Float.max 30. (ideal *. 40.)

let nas_run config ~sched ~bench ~weight =
  let s =
    single_vm_scenario config ~sched ~weight ~workload:(nas_workload config bench)
  in
  let m =
    Runner.run_rounds s ~rounds:1 ~max_sec:(max_sec_for config bench)
  in
  (s, m)

let nas_runtime config ~sched ~bench ~weight =
  let _, m = nas_run config ~sched ~bench ~weight in
  Runner.first_round_sec m ~vm:"V1"

let lu_by_rate config scheds =
  sweep
    (fun (name, weight) ->
      nas_runtime config ~sched:(sched_named name) ~bench:Sim_workloads.Nas.LU
        ~weight)
    (List.concat_map
       (fun sched -> List.map (fun w -> (Config.sched_name sched, w)) weights)
       scheds)

let rate_series ~label ~y_name f =
  Series.make ~label ~x_name:"online rate (%)" ~y_name
    (List.map (fun (w, r) -> (r, f w)) online_rate_points)

let wait_bucket_counts monitor =
  let h = Sim_guest.Monitor.spin_histogram monitor in
  [
    (">=2^10", Histogram.count_ge_pow2 h 10);
    (">=2^15", Histogram.count_ge_pow2 h 15);
    (">=2^20", Histogram.count_ge_pow2 h 20);
    (">=2^25", Histogram.count_ge_pow2 h 25);
  ]

(* ----- Fig 1a: LU run time vs online rate, Credit scheduler ----- *)

let paper_fig1a_credit =
  Series.make ~label:"paper Credit LU (s)" ~x_name:"online rate (%)"
    ~y_name:"run time (s)"
    [ (100., 400.); (66.7, 700.); (40., 1400.); (22.2, 2700.) ]

let fig1a_run config =
  let time = lu_by_rate config [ Config.Credit ] in
  let runtime w = time ("credit", w) in
  let measured =
    rate_series ~label:"Credit LU (sim s)" ~y_name:"run time (s)" runtime
  in
  let base = runtime 256 in
  let slowdown =
    Series.map_y measured ~f:(fun y -> y /. base)
  in
  let paper_slowdown = Series.map_y paper_fig1a_credit ~f:(fun y -> y /. 400.) in
  {
    series = [ measured; { slowdown with Series.label = "Credit LU slowdown" } ];
    expected =
      [
        paper_fig1a_credit;
        { paper_slowdown with Series.label = "paper slowdown" };
      ];
    notes =
      [
        Printf.sprintf
          "shape: slowdown at 22.2%% online should be well above the 4.5x \
           fair-share bound (paper ~6.8x; measured %.2fx)"
          (runtime 32 /. base);
        "absolute seconds are simulator scale (workloads shrunk by \
         config.scale); compare slowdowns, not seconds";
      ];
  }

(* ----- Fig 1b: spinlock waiting-time statistics vs online rate ----- *)

let fig1b_run config =
  let counts =
    sweep
      (fun w ->
        let s, _m = nas_run config ~sched:Config.Credit ~bench:Sim_workloads.Nas.LU ~weight:w in
        wait_bucket_counts (Runner.monitor_of s ~vm:"V1"))
      weights
  in
  let count band w = List.assoc band (counts w) in
  let series_for band =
    rate_series
      ~label:(Printf.sprintf "waits %s cycles" band)
      ~y_name:"count"
      (fun w -> float_of_int (count band w))
  in
  let frac_25 w =
    let total = count ">=2^10" w in
    if total = 0 then 0.
    else float_of_int (count ">=2^25" w) /. float_of_int total
  in
  {
    series = [ series_for ">=2^10"; series_for ">=2^20"; series_for ">=2^25" ];
    expected =
      [
        Series.make ~label:"paper waits >=2^10" ~x_name:"online rate (%)"
          ~y_name:"count"
          [ (100., 3000.); (66.7, 1500.); (40., 600.); (22.2, 350.) ];
      ];
    notes =
      [
        "paper observations: (1) total spinlock count falls with the online \
         rate; (2) most waits < 2^15; (3) the share of waits > 2^25 grows \
         quickly as the online rate drops";
        Printf.sprintf "measured share of waits >= 2^25: %s"
          (String.concat ", "
             (List.map
                (fun (w, r) ->
                  Printf.sprintf "%.1f%% at %g%%" (100. *. frac_25 w) r)
                online_rate_points));
      ];
  }

(* ----- Fig 2 / Fig 8: detailed spinlock wait traces ----- *)

(* Property (4) of §2.2: long waits arrive in neighbouring spinlocks.
   Listens to the monitor's traced waits (>= 2^trace_exp) and counts
   the >=2^20 ones and those whose predecessor in that stream is also
   >=2^20 (clustering); the returned thunk reads the fraction. *)
let track_locality monitor =
  let threshold = Sim_engine.Units.pow2 20 in
  let prev_big = ref false and hits = ref 0 and total = ref 0 in
  Sim_guest.Monitor.on_traced_wait monitor (fun e ->
      let big = e.Sim_guest.Monitor.wait >= threshold in
      if big then begin
        incr total;
        if !prev_big then incr hits
      end;
      prev_big := big);
  fun () ->
    if !total = 0 then nan else float_of_int !hits /. float_of_int !total

(* Each job returns its scenario's wait histogram and locality
   fraction: private to the job while running, read-only once it has
   completed. *)
let trace_summary config ~sched =
  let run =
    sweep
      (fun w ->
        let bench = Sim_workloads.Nas.LU in
        let s =
          single_vm_scenario config ~sched ~weight:w
            ~workload:(nas_workload config bench)
        in
        let monitor = Runner.monitor_of s ~vm:"V1" in
        let locality = track_locality monitor in
        let (_ : Runner.metrics) =
          Runner.run_rounds s ~rounds:1 ~max_sec:(max_sec_for config bench)
        in
        (Sim_guest.Monitor.spin_histogram monitor, locality ()))
      weights
  in
  let hist w = fst (run w) in
  let band lo hi =
    rate_series
      ~label:(Printf.sprintf "waits in [2^%d, 2^%d)" lo hi)
      ~y_name:"count"
      (fun w ->
        float_of_int
          (Histogram.count_ge_pow2 (hist w) lo
          - Histogram.count_ge_pow2 (hist w) hi))
  in
  let max_wait =
    rate_series ~label:"max wait (log2 cycles)" ~y_name:"log2 cycles"
      (fun w ->
        match Histogram.max_value (hist w) with
        | Some v when v >= 1 -> float_of_int (Sim_engine.Units.log2_floor v)
        | Some _ | None -> 0.)
  in
  ([ band 10 15; band 15 20; band 20 25; band 25 31; max_wait ], run)

let fig2_run config =
  let series, run = trace_summary config ~sched:Config.Credit in
  {
    series;
    expected = [];
    notes =
      [
        "paper Fig 2: under Credit, waits >= 2^25 appear at reduced online \
         rates and cluster (locality of synchronization)";
        Printf.sprintf
          "locality: fraction of >=2^20 waits immediately preceded by \
           another: %s"
          (String.concat ", "
             (List.map
                (fun (w, r) -> Printf.sprintf "%.2f at %g%%" (snd (run w)) r)
                online_rate_points));
      ];
  }

let fig8_run config =
  let series, run = trace_summary config ~sched:Config.Asman in
  {
    series;
    expected = [];
    notes =
      [
        "paper Fig 8: ASMan eliminates most over-threshold waits that Credit \
         exhibits in Fig 2 at the same online rates";
        Printf.sprintf "measured waits >= 2^25 at 22.2%% online under ASMan: %d"
          (Histogram.count_ge_pow2 (fst (run 32)) 25);
      ];
  }

(* ----- Fig 7: LU run time, Credit vs ASMan ----- *)

let paper_fig7_asman =
  Series.make ~label:"paper ASMan LU (s)" ~x_name:"online rate (%)"
    ~y_name:"run time (s)"
    [ (100., 400.); (66.7, 620.); (40., 1050.); (22.2, 1900.) ]

let fig7_run config =
  let time = lu_by_rate config [ Config.Credit; Config.Asman ] in
  let series name label =
    rate_series ~label ~y_name:"run time (s)" (fun w -> time (name, w))
  in
  let ratio_at w = time ("asman", w) /. time ("credit", w) in
  {
    series =
      [ series "credit" "Credit LU (sim s)"; series "asman" "ASMan LU (sim s)" ];
    expected = [ paper_fig1a_credit; paper_fig7_asman ];
    notes =
      [
        Printf.sprintf
          "shape: ASMan should track the fair-share bound while Credit \
           degrades superlinearly; ASMan/Credit run-time ratio at 22.2%% = \
           %.2f (paper ~0.70), at 40%% = %.2f (paper ~0.75), at 100%% = %.2f \
           (paper ~1.0)"
          (ratio_at 32) (ratio_at 64) (ratio_at 256);
      ];
  }

(* ----- Fig 9: NAS slowdowns, Credit vs ASMan ----- *)

let fig9_rates = [ (128, 66.7); (64, 40.); (32, 22.2) ]

let fig9_run config =
  let benches = Sim_workloads.Nas.all in
  (* 7 baseline runs plus 2 schedulers x 3 rates x 7 benchmarks. *)
  let time =
    sweep
      (fun (name, weight, bench) ->
        nas_runtime config ~sched:(sched_named name) ~bench ~weight)
      (List.map (fun b -> ("credit", 256, b)) benches
      @ List.concat_map
          (fun name ->
            List.concat_map
              (fun (w, _r) -> List.map (fun b -> (name, w, b)) benches)
              fig9_rates)
          [ "credit"; "asman" ])
  in
  let slowdowns name w =
    List.map (fun b -> time (name, w, b) /. time ("credit", 256, b)) benches
  in
  let per_rate name =
    List.map
      (fun (w, r) ->
        Series.make
          ~label:(Printf.sprintf "%s @%g%%" name r)
          ~x_name:"benchmark index" ~y_name:"slowdown"
          (List.mapi (fun i s -> (float_of_int i, s)) (slowdowns name w)))
      fig9_rates
  in
  let avg name w = mean (slowdowns name w) in
  let avg_series label name =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"avg slowdown"
      (List.map (fun (w, r) -> (r, avg name w)) fig9_rates)
  in
  let saving w = 100. *. (avg "credit" w -. avg "asman" w) /. avg "credit" w in
  {
    series =
      per_rate "credit" @ per_rate "asman"
      @ [
          avg_series "Credit avg slowdown" "credit";
          avg_series "ASMan avg slowdown" "asman";
        ];
    expected = [];
    notes =
      [
        Printf.sprintf "benchmark indices: %s"
          (String.concat ", "
             (List.mapi
                (fun i b -> Printf.sprintf "%d=%s" i (Sim_workloads.Nas.name b))
                benches));
        Printf.sprintf
          "paper: ASMan saves up to 70%% of the average slowdown at 22.2%%; \
           measured savings: %.0f%% at 66.7%%, %.0f%% at 40%%, %.0f%% at 22.2%%"
          (saving 128) (saving 64) (saving 32);
        "shape: EP (index 2) should degrade least and be insensitive to the \
         scheduler; sync-heavy CG/MG/LU should benefit most from ASMan";
      ];
  }

(* ----- Fig 10: SPECjbb throughput and score ----- *)

let fig10_warehouses = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let fig10_window_sec = 0.6

let fig10_throughput config ~sched ~weight ~warehouses =
  let params =
    Sim_workloads.Specjbb.default_params ~freq:(Config.freq config) ~warehouses
  in
  let workload = Sim_workloads.Specjbb.workload ~vcpus:4 params in
  let s = single_vm_scenario config ~sched ~weight ~workload in
  (* Warm up 0.3 s, then measure a fixed window. *)
  let warm = Sim_engine.Units.cycles_of_sec_f (Config.freq config) 0.3 in
  Sim_engine.Engine.run ~until:warm s.Scenario.engine;
  let m = Runner.run_window s ~sec:fig10_window_sec in
  let vm = Runner.vm_metrics m ~vm:"V1" in
  float_of_int vm.Runner.marks /. fig10_window_sec /. 1000.

let fig10_run config =
  (* 2 schedulers x 3 rates x 8 warehouse counts = 48 jobs. *)
  let tput =
    sweep
      (fun (name, weight, warehouses) ->
        fig10_throughput config ~sched:(sched_named name) ~weight ~warehouses)
      (List.concat_map
         (fun name ->
           List.concat_map
             (fun (w, _r) -> List.map (fun wh -> (name, w, wh)) fig10_warehouses)
             fig9_rates)
         [ "credit"; "asman" ])
  in
  let per_rate name =
    List.map
      (fun (w, r) ->
        Series.make
          ~label:(Printf.sprintf "%s @%g%%" name r)
          ~x_name:"warehouses" ~y_name:"throughput (k bops)"
          (List.map
             (fun wh -> (float_of_int wh, tput (name, w, wh)))
             fig10_warehouses))
      fig9_rates
  in
  let score name w =
    Sim_workloads.Specjbb.score ~vcpus:4
      (List.filter_map
         (fun wh -> if wh >= 4 then Some (wh, tput (name, w, wh)) else None)
         fig10_warehouses)
  in
  let score_series label name =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"score (k bops)"
      (List.map (fun (w, r) -> (r, score name w)) fig9_rates)
  in
  let gain w =
    100. *. (score "asman" w -. score "credit" w) /. score "credit" w
  in
  {
    series =
      per_rate "credit" @ per_rate "asman"
      @ [
          score_series "Credit score" "credit";
          score_series "ASMan score" "asman";
        ];
    expected = [];
    notes =
      [
        Printf.sprintf
          "paper: ASMan improves the SPECjbb score by up to 26%% at low \
           online rates; measured score gains: %.0f%% at 66.7%%, %.0f%% at \
           40%%, %.0f%% at 22.2%%"
          (gain 128) (gain 64) (gain 32);
      ];
  }

(* ----- Figs 11-12: multiple VMs, work-conserving ----- *)

let multi_vm_rounds = 3

let multi_vm_scheds =
  [
    ("Credit", Config.Credit);
    ("ASMan", Config.Asman);
    ("CON", Config.Cosched_static);
  ]

let multi_vm_outcome config ~vms ~paper_note =
  (* One job per scheduler; each builds its own multi-VM scenario. *)
  let run =
    sweep
      (fun label ->
        let s =
          Scenario.build config
            ~sched:(List.assoc label multi_vm_scheds)
            ~vms:(Scenario.numbered_vms config ~weight:256 vms)
        in
        Runner.run_rounds s ~rounds:multi_vm_rounds ~max_sec:400.)
      (List.map fst multi_vm_scheds)
  in
  let mean_round label vm =
    Runner.mean_round (Runner.vm_metrics (run label) ~vm)
  in
  let vm_names =
    List.map
      (fun (v : Runner.vm_metrics) -> v.Runner.vm_name)
      (run "Credit").Runner.vms
  in
  let series =
    List.map
      (fun (label, _) ->
        Series.make ~label ~x_name:"VM index" ~y_name:"mean round time (s)"
          (List.mapi
             (fun i vm -> (float_of_int i, mean_round label vm))
             vm_names))
      multi_vm_scheds
  in
  let ratio a b vm = mean_round a vm /. mean_round b vm in
  {
    series;
    expected = [];
    notes =
      (paper_note
      :: List.map
           (fun vm ->
             Printf.sprintf "%s: ASMan/Credit = %.2f, CON/Credit = %.2f" vm
               (ratio "ASMan" "Credit" vm)
               (ratio "CON" "Credit" vm))
           vm_names)
      @ [
          Printf.sprintf "mean of the first %d rounds per VM (paper: 10 rounds)"
            multi_vm_rounds;
        ];
  }

let fig11a_run config =
  multi_vm_outcome config
    ~vms:
      [
        Scenario.W_speccpu "bzip2";
        Scenario.W_speccpu "gcc";
        Scenario.W_nas "SP";
        Scenario.W_nas "LU";
      ]
    ~paper_note:
      "paper Fig 11a: coscheduling cuts SP and (especially) LU run times; \
       dynamic ASMan costs the throughput VMs (bzip2, gcc) less than static \
       CON"

let fig11b_run config =
  multi_vm_outcome config
    ~vms:
      [
        Scenario.W_nas "LU";
        Scenario.W_nas "LU";
        Scenario.W_nas "SP";
        Scenario.W_nas "SP";
      ]
    ~paper_note:
      "paper Fig 11b: with four concurrent VMs, both coscheduling variants \
       dramatically outperform Credit for LU and SP"

let fig12a_run config =
  multi_vm_outcome config
    ~vms:
      [
        Scenario.W_speccpu "bzip2";
        Scenario.W_speccpu "bzip2";
        Scenario.W_speccpu "gcc";
        Scenario.W_speccpu "gcc";
        Scenario.W_nas "SP";
        Scenario.W_nas "LU";
      ]
    ~paper_note:
      "paper Fig 12a: coscheduling saves up to ~45% of SP's and ~70% of LU's \
       run time; throughput degradation <=8% under ASMan vs <=18% under CON"

let fig12b_run config =
  multi_vm_outcome config
    ~vms:
      [
        Scenario.W_speccpu "bzip2";
        Scenario.W_speccpu "gcc";
        Scenario.W_nas "SP";
        Scenario.W_nas "SP";
        Scenario.W_nas "LU";
        Scenario.W_nas "LU";
      ]
    ~paper_note:
      "paper Fig 12b: coscheduling saves ~30% of SP's and ~60% of LU's run \
       time"

(* ----- Resilience: fairness + slowdown vs IPI-loss rate ----- *)

let resilience_rates = [ 0.; 0.05; 0.10; 0.20; 0.40 ]

(* Three LU VMs over-commit the 8 PCPUs (12 guest VCPUs + Dom0), so
   the gang scheduler re-gathers each VM with coscheduling IPIs every
   period — exactly the traffic the chaos layer attacks, and enough of
   it for the watchdog's strike counter to be statistically
   meaningful over the run. *)
let resilience_rounds = 6

let contended_run config ~sched =
  let vms =
    List.map
      (fun i ->
        Scenario.vm ~name:(Printf.sprintf "V%d" i)
          (nas_workload config Sim_workloads.Nas.LU))
      [ 1; 2; 3 ]
  in
  let s = Scenario.build config ~sched ~vms in
  let max_sec =
    float_of_int resilience_rounds *. max_sec_for config Sim_workloads.Nas.LU
  in
  Runner.run_rounds s ~rounds:resilience_rounds ~max_sec

let resilience_run config =
  let run =
    sweep
      (fun (name, rate) ->
        let config =
          Config.with_faults config (Sim_faults.Fault.ipi_loss rate)
        in
        contended_run config ~sched:(sched_named name))
      (List.concat_map
         (fun name -> List.map (fun rate -> (name, rate)) resilience_rates)
         [ "credit"; "asman" ])
  in
  let runtime key =
    let m = run key in
    mean
      (List.map
         (fun (v : Runner.vm_metrics) ->
           Runner.mean_round_sec m ~vm:v.Runner.vm_name)
         m.Runner.vms)
  in
  let fairness key =
    mean
      (List.map
         (fun (v : Runner.vm_metrics) ->
           if v.Runner.expected_online <= 0. then nan
           else v.Runner.online_rate /. v.Runner.expected_online)
         (run key).Runner.vms)
  in
  let demotions key =
    Option.value ~default:0
      (List.assoc_opt "watchdog_demotions" (run key).Runner.sched_counters)
  in
  let violations key = (run key).Runner.invariant_violations in
  let pct r = r *. 100. in
  let per_rate ~label ~y_name f =
    Series.make ~label ~x_name:"IPI loss (%)" ~y_name
      (List.map (fun rate -> (pct rate, f rate)) resilience_rates)
  in
  let slowdown name rate = runtime (name, rate) /. runtime (name, 0.) in
  let slowdown_series name label =
    per_rate ~label ~y_name:"slowdown vs clean" (slowdown name)
  in
  let fairness_series name label =
    per_rate ~label ~y_name:"online/expected" (fun rate -> fairness (name, rate))
  in
  let total_violations =
    List.fold_left
      (fun acc name ->
        List.fold_left
          (fun acc rate -> acc + violations (name, rate))
          acc resilience_rates)
      0 [ "credit"; "asman" ]
  in
  {
    series =
      [
        slowdown_series "credit" "Credit slowdown";
        slowdown_series "asman" "ASMan slowdown";
        fairness_series "credit" "Credit fairness";
        fairness_series "asman" "ASMan fairness";
        per_rate ~label:"ASMan watchdog demotions" ~y_name:"demotions"
          (fun rate -> float_of_int (demotions ("asman", rate)));
        per_rate ~label:"invariant violations (all runs)" ~y_name:"violations"
          (fun rate ->
            float_of_int
              (violations ("credit", rate) + violations ("asman", rate)));
      ];
    expected = [];
    notes =
      [
        Printf.sprintf
          "self-healing: every run completes with %d invariant violations \
           total; under heavy IPI loss the watchdog demotes the VM to plain \
           Credit, bounding ASMan's slowdown (%.2fx at 40%% loss) near the \
           Credit baseline instead of stalling on lost coschedules"
          total_violations (slowdown "asman" 0.40);
        "Credit sends no coscheduling IPIs, so its curve is the \
         fault-insensitive control; fairness = measured/expected online rate \
         (Equation 2)";
      ];
  }

(* ----- theft: attained vs entitled under scheduler attacks ----- *)

(* A small, saturated host makes entitlement a binding constraint: on
   2 PCPUs, a weight-128 attacker among weight-512 sustained victims
   is entitled to ~13% of a PCPU, so the attained/entitled ratio has
   headroom to expose theft. The window protocol (not rounds): attack
   guests run forever. *)

let theft_attack_names = [ "dodge"; "steal"; "launder" ]

let theft_attackers attack : (string * Scenario.workload_desc) list =
  match attack with
  | "dodge" -> [ ("A1", Scenario.W_attack_dodge { threads = 1 }) ]
  | "steal" -> [ ("A1", Scenario.W_attack_steal { threads = 1 }) ]
  | "launder" ->
    [
      ("A1", Scenario.W_attack_launder { threads = 1; phased = false });
      ("A2", Scenario.W_attack_launder { threads = 1; phased = true });
    ]
  | a -> invalid_arg (Printf.sprintf "theft_attackers: unknown attack %S" a)

let theft_victims = [ ("V1", "gcc"); ("V2", "bzip2"); ("V3", "gcc") ]

let theft_vm_descs attack =
  List.map
    (fun (n, w) ->
      { Scenario.vd_name = n; vd_weight = 128; vd_vcpus = 1; vd_workload = Some w })
    (theft_attackers attack)
  @ List.map
      (fun (n, bench) ->
        {
          Scenario.vd_name = n;
          vd_weight = 512;
          vd_vcpus = 2;
          vd_workload = Some (Scenario.W_speccpu bench);
        })
      theft_victims

let theft_window_sec = 1.0

let theft_window config ~sched ~accounting ~attack =
  let config =
    {
      (Config.with_work_conserving config true) with
      Config.topology = Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:2;
      accounting;
    }
  in
  let s = Scenario.of_descs config ~sched (theft_vm_descs attack) in
  Runner.run_window s ~sec:theft_window_sec

let theft_combos =
  [
    ("Credit sampled", (Config.Credit, Sim_vmm.Vmm.Sampled));
    ("Credit precise", (Config.Credit, Sim_vmm.Vmm.Precise));
    ("ASMan sampled", (Config.Asman, Sim_vmm.Vmm.Sampled));
    ("ASMan precise", (Config.Asman, Sim_vmm.Vmm.Precise));
  ]

let theft_x_name =
  Printf.sprintf "attack (%s)"
    (String.concat " "
       (List.mapi (fun i a -> Printf.sprintf "%d=%s" i a) theft_attack_names))

let theft_run config =
  let run =
    sweep
      (fun (combo, attack) ->
        let sched, accounting = List.assoc combo theft_combos in
        theft_window config ~sched ~accounting ~attack)
      (List.concat_map
         (fun (combo, _) -> List.map (fun a -> (combo, a)) theft_attack_names)
         theft_combos)
  in
  let vm key name = Runner.vm_metrics (run key) ~vm:name in
  let attackers (_, attack) = List.map fst (theft_attackers attack) in
  (* Aggregate attained/entitled: the attackers are judged as one
     coalition, so the laundering pair is judged summed. *)
  let ratio key names =
    let att, ent =
      List.fold_left
        (fun (a, e) name ->
          let v = vm key name in
          (a + v.Runner.attained_cycles, e + v.Runner.entitled_cycles))
        (0, 0) names
    in
    if ent <= 0 then nan else float_of_int att /. float_of_int ent
  in
  let attacker key = ratio key (attackers key) in
  let worst_victim key =
    List.fold_left
      (fun acc (name, _) -> Float.min acc (ratio key [ name ]))
      infinity theft_victims
  in
  let theft key =
    List.fold_left
      (fun acc name -> acc + (vm key name).Runner.theft_cycles)
      0 (attackers key)
  in
  let per_attack what f (combo, _) =
    Series.make
      ~label:(Printf.sprintf "%s: %s attained/entitled" combo what)
      ~x_name:theft_x_name ~y_name:"ratio"
      (List.mapi (fun i a -> (float_of_int i, f (combo, a))) theft_attack_names)
  in
  let precise_cells =
    List.concat_map
      (fun (combo, (_, accounting)) ->
        if accounting = Sim_vmm.Vmm.Precise then
          List.map (fun a -> (combo, a)) theft_attack_names
        else [])
      theft_combos
  in
  {
    series =
      List.map (per_attack "attacker" attacker) theft_combos
      @ List.map (per_attack "worst victim" worst_victim) theft_combos;
    expected = [];
    notes =
      [
        Printf.sprintf
          "sampled accounting is attackable: under Credit the tick-dodger \
           attains %.2fx its entitlement (expect >= 2x) by sleeping across \
           the debiting tick"
          (attacker ("Credit sampled", "dodge"));
        Printf.sprintf
          "precise accounting contains all three attacks: worst attacker \
           ratio %.2fx (expect <= 1.5x), aggregate attacker theft %d cycles \
           across precise cells"
          (List.fold_left
             (fun acc key -> Float.max acc (attacker key))
             0. precise_cells)
          (List.fold_left (fun acc key -> acc + theft key) 0 precise_cells);
        "ratios are aggregate attained/entitled per coalition; the \
         laundering pair is judged summed, which is what exposes it";
      ];
  }

(* ----- registry ----- *)

let all =
  [
    {
      id = "fig1a";
      title = "LU run time vs VCPU online rate (Credit)";
      description =
        "Parallel benchmark LU on a 4-VCPU VM under the Credit scheduler, \
         non-work-conserving, online rate swept via the VM weight";
      run = fig1a_run;
    };
    {
      id = "fig1b";
      title = "Spinlock waiting-time statistics vs online rate (Credit)";
      description =
        "Counts of monitored waits above 2^10 / 2^20 / 2^25 cycles during \
         the LU runs of Fig 1a";
      run = fig1b_run;
    };
    {
      id = "fig2";
      title = "Detailed spinlock waits under Credit (trace summary)";
      description =
        "Distribution of per-acquisition waiting times at each online rate; \
         long waits appear and cluster as the rate drops";
      run = fig2_run;
    };
    {
      id = "fig7";
      title = "LU run time: Credit vs ASMan";
      description = "The headline result: adaptive coscheduling vs baseline";
      run = fig7_run;
    };
    {
      id = "fig8";
      title = "Detailed spinlock waits under ASMan (trace summary)";
      description = "Fig 2 repeated under ASMan: over-threshold waits vanish";
      run = fig8_run;
    };
    {
      id = "fig9";
      title = "NAS benchmark slowdowns: Credit vs ASMan";
      description =
        "All seven NAS benchmarks at 66.7/40/22.2% online rates; slowdown \
         relative to the 100% Credit run; plus average slowdown";
      run = fig9_run;
    };
    {
      id = "fig10";
      title = "SPECjbb2005 throughput and score: Credit vs ASMan";
      description =
        "Throughput vs warehouses (1-8) at three online rates; score = mean \
         over warehouses >= 4";
      run = fig10_run;
    };
    {
      id = "fig11a";
      title = "Four VMs: bzip2, gcc, SP, LU (work-conserving)";
      description = "Mixed workloads under Credit / ASMan / static CON";
      run = fig11a_run;
    };
    {
      id = "fig11b";
      title = "Four VMs: LU, LU, SP, SP (work-conserving)";
      description = "All-concurrent workloads under the three schedulers";
      run = fig11b_run;
    };
    {
      id = "fig12a";
      title = "Six VMs: bzip2 x2, gcc x2, SP, LU";
      description = "Four throughput + two concurrent VMs";
      run = fig12a_run;
    };
    {
      id = "fig12b";
      title = "Six VMs: bzip2, gcc, SP x2, LU x2";
      description = "Two throughput + four concurrent VMs";
      run = fig12b_run;
    };
    {
      id = "theft";
      title = "Attained vs entitled CPU under scheduler attacks";
      description =
        "Tick-dodging, cycle-stealing and laundering-pair guests on a \
         saturated 2-PCPU host: Credit/ASMan under Xen-style sampled \
         accounting (attackable) vs span-exact precise accounting \
         (contained)";
      run = theft_run;
    };
    {
      id = "resilience";
      title = "Fairness and slowdown vs coscheduling IPI-loss rate";
      description =
        "Three contended LU VMs under injected IPI loss (0-40%): Credit vs \
         ASMan with the coscheduling watchdog; plus watchdog demotions and \
         runtime invariant violations per loss rate";
      run = resilience_run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

(* Theft-figure cells flattened to "<series label> <attack>" ->
   attained/entitled ratio — the "fairness" section of bench and
   experiment run records comes from here. *)
let fairness_entries (o : outcome) =
  let attack_of_x x =
    let i = int_of_float x in
    if i >= 0 && i < List.length theft_attack_names then
      List.nth theft_attack_names i
    else string_of_int i
  in
  List.concat_map
    (fun (s : Series.t) ->
      List.map
        (fun (x, y) ->
          (Printf.sprintf "%s %s" s.Series.label (attack_of_x x), y))
        (Series.points s))
    o.series
