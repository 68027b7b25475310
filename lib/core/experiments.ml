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

let note fmt = Printf.ksprintf (fun s -> s) fmt

(* ----- shared building blocks ----- *)

let single_vm_scenario config ~sched ~weight ~workload =
  let config = Config.with_work_conserving config false in
  Scenario.build config ~sched
    ~vms:
      [
        {
          Scenario.vm_name = "V1";
          weight;
          vcpus = 4;
          workload = Some workload;
        };
      ]

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

let wait_bucket_counts monitor =
  let h = Sim_guest.Monitor.spin_histogram monitor in
  [
    (">=2^10", Histogram.count_ge_pow2 h 10);
    (">=2^15", Histogram.count_ge_pow2 h 15);
    (">=2^20", Histogram.count_ge_pow2 h 20);
    (">=2^25", Histogram.count_ge_pow2 h 25);
  ]

let rates = List.map snd online_rate_points

(* Every data point below is an independent job: it builds its own
   Scenario — hence its own Engine, RNG and guest state — from the
   shared immutable Config, so fanning jobs out over Pool worker
   domains shares no mutable state and the folded-back outcome is
   identical at any worker count. *)
let par_map f xs = Pool.map f xs

(* ----- Fig 1a: LU run time vs online rate, Credit scheduler ----- *)

let paper_fig1a_credit =
  Series.make ~label:"paper Credit LU (s)" ~x_name:"online rate (%)"
    ~y_name:"run time (s)"
    [ (100., 400.); (66.7, 700.); (40., 1400.); (22.2, 2700.) ]

let fig1a_run config =
  let runtimes =
    par_map
      (fun (w, r) ->
        (r, nas_runtime config ~sched:Config.Credit ~bench:Sim_workloads.Nas.LU ~weight:w))
      online_rate_points
  in
  let measured =
    Series.make ~label:"Credit LU (sim s)" ~x_name:"online rate (%)"
      ~y_name:"run time (s)" runtimes
  in
  let base = List.assoc 100. runtimes in
  let slowdown =
    Series.map_y measured ~f:(fun y -> y /. base)
  in
  let paper_slowdown = Series.map_y paper_fig1a_credit ~f:(fun y -> y /. 400.) in
  let measured_222 = List.assoc 22.2 runtimes /. base in
  {
    series = [ measured; { slowdown with Series.label = "Credit LU slowdown" } ];
    expected =
      [
        paper_fig1a_credit;
        { paper_slowdown with Series.label = "paper slowdown" };
      ];
    notes =
      [
        note
          "shape: slowdown at 22.2%% online should be well above the 4.5x \
           fair-share bound (paper ~6.8x; measured %.2fx)"
          measured_222;
        "absolute seconds are simulator scale (workloads shrunk by \
         config.scale); compare slowdowns, not seconds";
      ];
  }

(* ----- Fig 1b: spinlock waiting-time statistics vs online rate ----- *)

let fig1b_run config =
  let per_rate =
    par_map
      (fun (w, r) ->
        let s, _m = nas_run config ~sched:Config.Credit ~bench:Sim_workloads.Nas.LU ~weight:w in
        (r, wait_bucket_counts (Runner.monitor_of s ~vm:"V1")))
      online_rate_points
  in
  let series_for band =
    Series.make
      ~label:(Printf.sprintf "waits %s cycles" band)
      ~x_name:"online rate (%)" ~y_name:"count"
      (List.map
         (fun (r, counts) -> (r, float_of_int (List.assoc band counts)))
         per_rate)
  in
  let ge10 = series_for ">=2^10" in
  let ge20 = series_for ">=2^20" in
  let ge25 = series_for ">=2^25" in
  let frac_25 r =
    let counts = List.assoc r per_rate in
    let total = List.assoc ">=2^10" counts in
    if total = 0 then 0.
    else float_of_int (List.assoc ">=2^25" counts) /. float_of_int total
  in
  {
    series = [ ge10; ge20; ge25 ];
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
        note "measured share of waits >= 2^25: %s"
          (String.concat ", "
             (List.map
                (fun r -> Printf.sprintf "%.1f%% at %g%%" (100. *. frac_25 r) r)
                rates));
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

let trace_summary config ~sched =
  (* Each job returns its scenario's monitor and locality fraction:
     private to the job while running, read-only once it has
     completed. *)
  let per_rate =
    par_map
      (fun (w, r) ->
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
        (r, monitor, locality ()))
      online_rate_points
  in
  let band lo hi =
    Series.make
      ~label:(Printf.sprintf "waits in [2^%d, 2^%d)" lo hi)
      ~x_name:"online rate (%)" ~y_name:"count"
      (List.map
         (fun (r, m, _) ->
           let h = Sim_guest.Monitor.spin_histogram m in
           ( r,
             float_of_int
               (Histogram.count_ge_pow2 h lo - Histogram.count_ge_pow2 h hi) ))
         per_rate)
  in
  let max_wait =
    Series.make ~label:"max wait (log2 cycles)" ~x_name:"online rate (%)"
      ~y_name:"log2 cycles"
      (List.map
         (fun (r, m, _) ->
           let h = Sim_guest.Monitor.spin_histogram m in
           match Histogram.max_value h with
           | Some v when v >= 1 ->
             (r, float_of_int (Sim_engine.Units.log2_floor v))
           | Some _ | None -> (r, 0.))
         per_rate)
  in
  ([ band 10 15; band 15 20; band 20 25; band 25 31; max_wait ], per_rate)

let locality_note per_rate =
  note "locality: fraction of >=2^20 waits immediately preceded by another: %s"
    (String.concat ", "
       (List.map
          (fun (r, _, locality) -> Printf.sprintf "%.2f at %g%%" locality r)
          per_rate))

let fig2_run config =
  let series, per_rate = trace_summary config ~sched:Config.Credit in
  {
    series;
    expected = [];
    notes =
      [
        "paper Fig 2: under Credit, waits >= 2^25 appear at reduced online \
         rates and cluster (locality of synchronization)";
        locality_note per_rate;
      ];
  }

let fig8_run config =
  let series, per_rate = trace_summary config ~sched:Config.Asman in
  let over_222 =
    match List.find_opt (fun (r, _, _) -> r = 22.2) per_rate with
    | Some (_, m, _) ->
      Histogram.count_ge_pow2 (Sim_guest.Monitor.spin_histogram m) 25
    | None -> 0
  in
  {
    series;
    expected = [];
    notes =
      [
        "paper Fig 8: ASMan eliminates most over-threshold waits that Credit \
         exhibits in Fig 2 at the same online rates";
        note "measured waits >= 2^25 at 22.2%% online under ASMan: %d" over_222;
      ];
  }

(* ----- Fig 7: LU run time, Credit vs ASMan ----- *)

let paper_fig7_asman =
  Series.make ~label:"paper ASMan LU (s)" ~x_name:"online rate (%)"
    ~y_name:"run time (s)"
    [ (100., 400.); (66.7, 620.); (40., 1050.); (22.2, 1900.) ]

let fig7_run config =
  (* One job per (scheduler, online rate) point: 8 independent runs. *)
  let specs =
    List.concat_map
      (fun sched -> List.map (fun (w, r) -> (sched, w, r)) online_rate_points)
      [ Config.Credit; Config.Asman ]
  in
  let times =
    par_map
      (fun (sched, w, _r) ->
        nas_runtime config ~sched ~bench:Sim_workloads.Nas.LU ~weight:w)
      specs
  in
  let points =
    List.map2 (fun (sched, _w, r) t -> (Config.sched_name sched, r, t)) specs times
  in
  let series_of sched_name label =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"run time (s)"
      (List.filter_map
         (fun (n, r, t) -> if n = sched_name then Some (r, t) else None)
         points)
  in
  let credit = series_of "credit" "Credit LU (sim s)" in
  let asman = series_of "asman" "ASMan LU (sim s)" in
  let ratio_at r =
    match (Series.y_at asman r, Series.y_at credit r) with
    | Some a, Some c when c > 0. -> a /. c
    | _ -> nan
  in
  {
    series = [ credit; asman ];
    expected = [ paper_fig1a_credit; paper_fig7_asman ];
    notes =
      [
        note
          "shape: ASMan should track the fair-share bound while Credit \
           degrades superlinearly; ASMan/Credit run-time ratio at 22.2%% = \
           %.2f (paper ~0.70), at 40%% = %.2f (paper ~0.75), at 100%% = %.2f \
           (paper ~1.0)"
          (ratio_at 22.2) (ratio_at 40.) (ratio_at 100.);
      ];
  }

(* ----- Fig 9: NAS slowdowns, Credit vs ASMan ----- *)

let fig9_rates = [ (128, 66.7); (64, 40.); (32, 22.2) ]

let fig9_run config =
  let benches = Sim_workloads.Nas.all in
  (* One flat fan-out: 7 baseline runs plus 2 schedulers x 3 rates x 7
     benchmarks, every run an independent job. *)
  let base_specs = List.map (fun b -> (Config.Credit, 256, b)) benches in
  let sweep_specs =
    List.concat_map
      (fun sched ->
        List.concat_map
          (fun (w, _r) -> List.map (fun b -> (sched, w, b)) benches)
          fig9_rates)
      [ Config.Credit; Config.Asman ]
  in
  let specs = base_specs @ sweep_specs in
  let times =
    par_map
      (fun (sched, w, b) -> nas_runtime config ~sched ~bench:b ~weight:w)
      specs
  in
  let table =
    List.map2
      (fun (sched, w, b) t ->
        ((Config.sched_name sched, w, Sim_workloads.Nas.name b), t))
      specs times
  in
  let time sched w b =
    List.assoc (Config.sched_name sched, w, Sim_workloads.Nas.name b) table
  in
  let slowdown sched b w = time sched w b /. time Config.Credit 256 b in
  let per_sched_rate sched (w, r) =
    let label =
      Printf.sprintf "%s @%g%%" (Config.sched_name sched) r
    in
    let values =
      List.mapi (fun i b -> (float_of_int i, slowdown sched b w)) benches
    in
    Series.make ~label ~x_name:"benchmark index" ~y_name:"slowdown" values
  in
  let credit_series = List.map (per_sched_rate Config.Credit) fig9_rates in
  let asman_series = List.map (per_sched_rate Config.Asman) fig9_rates in
  let avg s =
    let ys = Series.ys s in
    List.fold_left ( +. ) 0. ys /. float_of_int (List.length ys)
  in
  let avg_series label series_list =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"avg slowdown"
      (List.map2 (fun (_, r) s -> (r, avg s)) fig9_rates series_list)
  in
  let credit_avg = avg_series "Credit avg slowdown" credit_series in
  let asman_avg = avg_series "ASMan avg slowdown" asman_series in
  let saving r =
    match (Series.y_at credit_avg r, Series.y_at asman_avg r) with
    | Some c, Some a when c > 0. -> 100. *. (c -. a) /. c
    | _ -> nan
  in
  {
    series = (credit_series @ asman_series) @ [ credit_avg; asman_avg ];
    expected = [];
    notes =
      [
        note "benchmark indices: %s"
          (String.concat ", "
             (List.mapi
                (fun i b -> Printf.sprintf "%d=%s" i (Sim_workloads.Nas.name b))
                benches));
        note
          "paper: ASMan saves up to 70%% of the average slowdown at 22.2%%; \
           measured savings: %.0f%% at 66.7%%, %.0f%% at 40%%, %.0f%% at 22.2%%"
          (saving 66.7) (saving 40.) (saving 22.2);
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
  (* Warm up half a second, then measure a fixed window. *)
  let warm = Sim_engine.Units.cycles_of_sec_f (Config.freq config) 0.3 in
  Sim_engine.Engine.run ~until:warm s.Scenario.engine;
  let m = Runner.run_window s ~sec:fig10_window_sec in
  let vm = Runner.vm_metrics m ~vm:"V1" in
  float_of_int vm.Runner.marks /. fig10_window_sec /. 1000.

let fig10_run config =
  (* 2 schedulers x 3 rates x 8 warehouse counts = 48 independent jobs. *)
  let specs =
    List.concat_map
      (fun sched ->
        List.concat_map
          (fun (w, r) -> List.map (fun wh -> (sched, w, r, wh)) fig10_warehouses)
          fig9_rates)
      [ Config.Credit; Config.Asman ]
  in
  let tputs =
    par_map
      (fun (sched, w, _r, wh) ->
        fig10_throughput config ~sched ~weight:w ~warehouses:wh)
      specs
  in
  let table =
    List.map2
      (fun (sched, _w, r, wh) v -> ((Config.sched_name sched, r, wh), v))
      specs tputs
  in
  let per sched (_w, r) =
    let label =
      Printf.sprintf "%s @%g%%" (Config.sched_name sched) r
    in
    Series.make ~label ~x_name:"warehouses" ~y_name:"throughput (k bops)"
      (List.map
         (fun wh ->
           ( float_of_int wh,
             List.assoc (Config.sched_name sched, r, wh) table ))
         fig10_warehouses)
  in
  let credit_series = List.map (per Config.Credit) fig9_rates in
  let asman_series = List.map (per Config.Asman) fig9_rates in
  let score s =
    Sim_workloads.Specjbb.score ~vcpus:4
      (List.filter_map
         (fun (x, y) -> if x >= 4. then Some (int_of_float x, y) else None)
         (Series.points s))
  in
  let score_series label series_list =
    Series.make ~label ~x_name:"online rate (%)" ~y_name:"score (k bops)"
      (List.map2 (fun (_, r) s -> (r, score s)) fig9_rates series_list)
  in
  let credit_score = score_series "Credit score" credit_series in
  let asman_score = score_series "ASMan score" asman_series in
  let gain r =
    match (Series.y_at credit_score r, Series.y_at asman_score r) with
    | Some c, Some a when c > 0. -> 100. *. (a -. c) /. c
    | _ -> nan
  in
  {
    series = (credit_series @ asman_series) @ [ credit_score; asman_score ];
    expected = [];
    notes =
      [
        note
          "paper: ASMan improves the SPECjbb score by up to 26%% at low \
           online rates; measured score gains: %.0f%% at 66.7%%, %.0f%% at \
           40%%, %.0f%% at 22.2%%"
          (gain 66.7) (gain 40.) (gain 22.2);
      ];
  }

(* ----- Figs 11-12: multiple VMs, work-conserving ----- *)

type multi_vm = { label : string; make : Config.t -> Sim_workloads.Workload.t }

let mk_nas bench =
  {
    label = Sim_workloads.Nas.name bench;
    make = (fun c -> nas_workload c bench);
  }

let mk_cpu bench =
  {
    label = Sim_workloads.Speccpu.name bench;
    make =
      (fun c ->
        Sim_workloads.Speccpu.workload
          (Sim_workloads.Speccpu.params bench ~freq:(Config.freq c)
             ~scale:c.Config.scale));
  }

let multi_vm_rounds = 3

let multi_vm_run config ~vms ~sched =
  let specs =
    List.mapi
      (fun i mv ->
        {
          Scenario.vm_name = Printf.sprintf "V%d:%s" (i + 1) mv.label;
          weight = 256;
          vcpus = 4;
          workload = Some (mv.make config);
        })
      vms
  in
  let s = Scenario.build config ~sched ~vms:specs in
  let m = Runner.run_rounds s ~rounds:multi_vm_rounds ~max_sec:400. in
  List.map
    (fun spec ->
      let name = spec.Scenario.vm_name in
      let vmres = Runner.vm_metrics m ~vm:name in
      let mean =
        match vmres.Runner.round_sec with
        | [] -> nan
        | durations ->
          List.fold_left ( +. ) 0. durations
          /. float_of_int (List.length durations)
      in
      (name, mean))
    specs

let multi_vm_outcome config ~vms ~paper_note =
  let scheds =
    [
      (Config.Credit, "Credit");
      (Config.Asman, "ASMan");
      (Config.Cosched_static, "CON");
    ]
  in
  (* One job per scheduler; each builds its own multi-VM scenario. *)
  let results =
    par_map
      (fun (sched, label) -> (label, multi_vm_run config ~vms ~sched))
      scheds
  in
  let series =
    List.map
      (fun (label, by_vm) ->
        Series.make ~label ~x_name:"VM index" ~y_name:"mean round time (s)"
          (List.mapi (fun i (_, sec) -> (float_of_int i, sec)) by_vm))
      results
  in
  let vm_names = List.map fst (List.assoc "Credit" results) in
  let ratio a b vm_index =
    let get label =
      match List.nth_opt (List.assoc label results) vm_index with
      | Some (_, v) -> v
      | None -> nan
    in
    get a /. get b
  in
  let per_vm_notes =
    List.mapi
      (fun i name ->
        note "%s: ASMan/Credit = %.2f, CON/Credit = %.2f" name
          (ratio "ASMan" "Credit" i)
          (ratio "CON" "Credit" i))
      vm_names
  in
  {
    series;
    expected = [];
    notes = (paper_note :: per_vm_notes)
            @ [ note "mean of the first %d rounds per VM (paper: 10 rounds)"
                  multi_vm_rounds ];
  }

let fig11a_run config =
  multi_vm_outcome config
    ~vms:
      [
        mk_cpu Sim_workloads.Speccpu.Bzip2;
        mk_cpu Sim_workloads.Speccpu.Gcc;
        mk_nas Sim_workloads.Nas.SP;
        mk_nas Sim_workloads.Nas.LU;
      ]
    ~paper_note:
      "paper Fig 11a: coscheduling cuts SP and (especially) LU run times; \
       dynamic ASMan costs the throughput VMs (bzip2, gcc) less than static \
       CON"

let fig11b_run config =
  multi_vm_outcome config
    ~vms:
      [
        mk_nas Sim_workloads.Nas.LU;
        mk_nas Sim_workloads.Nas.LU;
        mk_nas Sim_workloads.Nas.SP;
        mk_nas Sim_workloads.Nas.SP;
      ]
    ~paper_note:
      "paper Fig 11b: with four concurrent VMs, both coscheduling variants \
       dramatically outperform Credit for LU and SP"

let fig12a_run config =
  multi_vm_outcome config
    ~vms:
      [
        mk_cpu Sim_workloads.Speccpu.Bzip2;
        mk_cpu Sim_workloads.Speccpu.Bzip2;
        mk_cpu Sim_workloads.Speccpu.Gcc;
        mk_cpu Sim_workloads.Speccpu.Gcc;
        mk_nas Sim_workloads.Nas.SP;
        mk_nas Sim_workloads.Nas.LU;
      ]
    ~paper_note:
      "paper Fig 12a: coscheduling saves up to ~45% of SP's and ~70% of LU's \
       run time; throughput degradation <=8% under ASMan vs <=18% under CON"

let fig12b_run config =
  multi_vm_outcome config
    ~vms:
      [
        mk_cpu Sim_workloads.Speccpu.Bzip2;
        mk_cpu Sim_workloads.Speccpu.Gcc;
        mk_nas Sim_workloads.Nas.SP;
        mk_nas Sim_workloads.Nas.SP;
        mk_nas Sim_workloads.Nas.LU;
        mk_nas Sim_workloads.Nas.LU;
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
        {
          Scenario.vm_name = Printf.sprintf "V%d" i;
          weight = 256;
          vcpus = 4;
          workload = Some (nas_workload config Sim_workloads.Nas.LU);
        })
      [ 1; 2; 3 ]
  in
  let s = Scenario.build config ~sched ~vms in
  let max_sec =
    float_of_int resilience_rounds *. max_sec_for config Sim_workloads.Nas.LU
  in
  let m = Runner.run_rounds s ~rounds:resilience_rounds ~max_sec in
  (s, m)

let resilience_run config =
  let specs =
    List.concat_map
      (fun sched -> List.map (fun rate -> (sched, rate)) resilience_rates)
      [ Config.Credit; Config.Asman ]
  in
  let results =
    par_map
      (fun (sched, rate) ->
        let config =
          Config.with_faults config (Sim_faults.Fault.ipi_loss rate)
        in
        let _s, m = contended_run config ~sched in
        let demotions =
          match List.assoc_opt "watchdog_demotions" m.Runner.sched_counters with
          | Some d -> d
          | None -> 0
        in
        let mean l =
          List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
        in
        let runtime =
          mean
            (List.map
               (fun (v : Runner.vm_metrics) -> Runner.mean_round_sec m ~vm:v.Runner.vm_name)
               m.Runner.vms)
        in
        let fairness =
          mean
            (List.map
               (fun (v : Runner.vm_metrics) ->
                 if v.Runner.expected_online <= 0. then nan
                 else v.Runner.online_rate /. v.Runner.expected_online)
               m.Runner.vms)
        in
        (runtime, fairness, demotions, m.Runner.invariant_violations))
      specs
  in
  let table =
    List.map2
      (fun (sched, rate) r -> ((Config.sched_name sched, rate), r))
      specs results
  in
  let get sched rate = List.assoc (Config.sched_name sched, rate) table in
  let pct r = r *. 100. in
  let slowdown_series sched label =
    let base, _, _, _ = get sched 0. in
    Series.make ~label ~x_name:"IPI loss (%)" ~y_name:"slowdown vs clean"
      (List.map
         (fun rate ->
           let t, _, _, _ = get sched rate in
           (pct rate, t /. base))
         resilience_rates)
  in
  let fairness_series sched label =
    Series.make ~label ~x_name:"IPI loss (%)" ~y_name:"online/expected"
      (List.map
         (fun rate ->
           let _, f, _, _ = get sched rate in
           (pct rate, f))
         resilience_rates)
  in
  let demotion_series =
    Series.make ~label:"ASMan watchdog demotions" ~x_name:"IPI loss (%)"
      ~y_name:"demotions"
      (List.map
         (fun rate ->
           let _, _, d, _ = get Config.Asman rate in
           (pct rate, float_of_int d))
         resilience_rates)
  in
  let violation_series =
    Series.make ~label:"invariant violations (all runs)"
      ~x_name:"IPI loss (%)" ~y_name:"violations"
      (List.map
         (fun rate ->
           let _, _, _, vc = get Config.Credit rate in
           let _, _, _, va = get Config.Asman rate in
           (pct rate, float_of_int (vc + va)))
         resilience_rates)
  in
  let total_violations =
    List.fold_left (fun acc (_, (_, _, _, v)) -> acc + v) 0 table
  in
  let asman_slow rate =
    let base, _, _, _ = get Config.Asman 0. in
    let t, _, _, _ = get Config.Asman rate in
    t /. base
  in
  {
    series =
      [
        slowdown_series Config.Credit "Credit slowdown";
        slowdown_series Config.Asman "ASMan slowdown";
        fairness_series Config.Credit "Credit fairness";
        fairness_series Config.Asman "ASMan fairness";
        demotion_series;
        violation_series;
      ];
    expected = [];
    notes =
      [
        note
          "self-healing: every run completes with %d invariant violations \
           total; under heavy IPI loss the watchdog demotes the VM to plain \
           Credit, bounding ASMan's slowdown (%.2fx at 40%% loss) near the \
           Credit baseline instead of stalling on lost coschedules"
          total_violations (asman_slow 0.40);
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

let theft_vm_descs attack =
  List.map
    (fun (n, w) ->
      { Scenario.vd_name = n; vd_weight = 128; vd_vcpus = 1; vd_workload = Some w })
    (theft_attackers attack)
  @ List.init 3 (fun i ->
        {
          Scenario.vd_name = Printf.sprintf "V%d" (i + 1);
          vd_weight = 512;
          vd_vcpus = 2;
          vd_workload =
            Some (Scenario.W_speccpu (if i mod 2 = 0 then "gcc" else "bzip2"));
        })

let theft_window_sec = 1.0

(* One cell of the grid: (attacker ratio, worst victim ratio, attacker
   theft cycles). Ratios are aggregate attained/entitled; attackers
   aggregated so the laundering pair is judged as a coalition. *)
let theft_cell config ~sched ~accounting ~attack =
  let config =
    {
      (Config.with_work_conserving config true) with
      Config.topology = Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:2;
      accounting;
    }
  in
  let s = Scenario.of_descs config ~sched (theft_vm_descs attack) in
  let m = Runner.run_window s ~sec:theft_window_sec in
  let is_attacker (inst : Scenario.vm_instance) =
    match inst.Scenario.spec.Scenario.workload with
    | Some w -> Sim_workloads.Attack.is_attack w
    | None -> false
  in
  let ratio insts =
    let att, ent =
      List.fold_left
        (fun (a, e) (inst : Scenario.vm_instance) ->
          let vm =
            Runner.vm_metrics m ~vm:inst.Scenario.spec.Scenario.vm_name
          in
          (a + vm.Runner.attained_cycles, e + vm.Runner.entitled_cycles))
        (0, 0) insts
    in
    if ent <= 0 then nan else float_of_int att /. float_of_int ent
  in
  let attackers, victims = List.partition is_attacker s.Scenario.vms in
  let worst_victim =
    List.fold_left
      (fun acc (inst : Scenario.vm_instance) ->
        Float.min acc (ratio [ inst ]))
      infinity victims
  in
  let theft =
    List.fold_left
      (fun acc (inst : Scenario.vm_instance) ->
        acc
        + (Runner.vm_metrics m ~vm:inst.Scenario.spec.Scenario.vm_name)
            .Runner.theft_cycles)
      0 attackers
  in
  (ratio attackers, worst_victim, theft)

let theft_combos =
  [
    (Config.Credit, Sim_vmm.Vmm.Sampled, "Credit sampled");
    (Config.Credit, Sim_vmm.Vmm.Precise, "Credit precise");
    (Config.Asman, Sim_vmm.Vmm.Sampled, "ASMan sampled");
    (Config.Asman, Sim_vmm.Vmm.Precise, "ASMan precise");
  ]

let theft_run config =
  let cells =
    par_map
      (fun ((sched, accounting, _), attack) ->
        theft_cell config ~sched ~accounting ~attack)
      (List.concat_map
         (fun combo -> List.map (fun a -> (combo, a)) theft_attack_names)
         theft_combos)
  in
  let table =
    List.map2
      (fun (combo, attack) cell -> ((combo, attack), cell))
      (List.concat_map
         (fun combo -> List.map (fun a -> (combo, a)) theft_attack_names)
         theft_combos)
      cells
  in
  let x_of_attack = List.mapi (fun i a -> (a, float_of_int i)) theft_attack_names in
  let attacker_series (combo : Config.sched_kind * Sim_vmm.Vmm.accounting * string) =
    let _, _, label = combo in
    Series.make
      ~label:(Printf.sprintf "%s: attacker attained/entitled" label)
      ~x_name:"attack (0=dodge 1=steal 2=launder)" ~y_name:"ratio"
      (List.map
         (fun a ->
           let r, _, _ = List.assoc (combo, a) table in
           (List.assoc a x_of_attack, r))
         theft_attack_names)
  in
  let victim_series combo =
    let _, _, label = combo in
    Series.make
      ~label:(Printf.sprintf "%s: worst victim attained/entitled" label)
      ~x_name:"attack (0=dodge 1=steal 2=launder)" ~y_name:"ratio"
      (List.map
         (fun a ->
           let _, v, _ = List.assoc (combo, a) table in
           (List.assoc a x_of_attack, v))
         theft_attack_names)
  in
  let cell combo attack = List.assoc (combo, attack) table in
  let credit_sampled = List.nth theft_combos 0 in
  let dodge_sampled, _, _ = cell credit_sampled "dodge" in
  let precise_combos =
    List.filter (fun (_, a, _) -> a = Sim_vmm.Vmm.Precise) theft_combos
  in
  let worst_precise_attacker =
    List.fold_left
      (fun acc combo ->
        List.fold_left
          (fun acc a ->
            let r, _, _ = cell combo a in
            Float.max acc r)
          acc theft_attack_names)
      0. precise_combos
  in
  let precise_theft =
    List.fold_left
      (fun acc combo ->
        List.fold_left
          (fun acc a ->
            let _, _, t = cell combo a in
            acc + t)
          acc theft_attack_names)
      0 precise_combos
  in
  {
    series =
      List.map attacker_series theft_combos
      @ List.map victim_series theft_combos;
    expected = [];
    notes =
      [
        note
          "sampled accounting is attackable: under Credit the tick-dodger \
           attains %.2fx its entitlement (expect >= 2x) by sleeping across \
           the debiting tick"
          dodge_sampled;
        note
          "precise accounting contains all three attacks: worst attacker \
           ratio %.2fx (expect <= 1.5x), aggregate attacker theft %d cycles \
           across precise cells"
          worst_precise_attacker precise_theft;
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
   attained/entitled ratio — the bench dump's "fairness" section and
   the run registry's fairness entries come from here. *)
let fairness_entries (o : outcome) =
  let attack_of_x x =
    match int_of_float x with
    | 0 -> "dodge"
    | 1 -> "steal"
    | 2 -> "launder"
    | i -> string_of_int i
  in
  List.concat_map
    (fun (s : Series.t) ->
      List.map
        (fun (x, y) ->
          (Printf.sprintf "%s %s" s.Series.label (attack_of_x x), y))
        (Series.points s))
    o.series
