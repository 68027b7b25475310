open Sim_stats

let outcome (e : Experiments.t) (o : Experiments.outcome) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "=== %s: %s ===\n%s\n\n" e.Experiments.id
       e.Experiments.title e.Experiments.description);
  if o.Experiments.series <> [] then begin
    Buffer.add_string buf "measured:\n";
    Buffer.add_string buf (Table.render_series o.Experiments.series);
    Buffer.add_char buf '\n'
  end;
  if o.Experiments.expected <> [] then begin
    Buffer.add_string buf "paper (digitized from the published figure):\n";
    Buffer.add_string buf (Table.render_series o.Experiments.expected);
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n))
    o.Experiments.notes;
  Buffer.contents buf

let vm_table ?(extra = []) rows =
  Table.render
    ~headers:
      ([
         "VM"; "rounds"; "mean round (s)"; "online"; "expected"; "over-thr";
         "vcrd flips";
       ]
      @ extra)
    (List.map
       (fun ((vm : Runner.vm_metrics), cells) ->
         [
           vm.Runner.vm_name;
           string_of_int vm.Runner.rounds;
           Table.fixed ~decimals:3 (Runner.mean_round vm);
           Table.fixed ~decimals:3 vm.Runner.online_rate;
           Table.fixed ~decimals:3 vm.Runner.expected_online;
           string_of_int vm.Runner.spin_over_threshold;
           string_of_int vm.Runner.vcrd_transitions;
         ]
         @ cells)
       rows)

let run ~sched (s : Scenario.t) (m : Runner.metrics) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf fmt in
  line "scheduler: %s   simulated: %.3f s   events: %d   ipis: %d\n\n"
    (Config.sched_name sched) m.Runner.sim_sec m.Runner.events_fired
    m.Runner.ipis;
  Buffer.add_string buf (vm_table (List.map (fun v -> (v, [])) m.Runner.vms));
  Buffer.add_char buf '\n';
  let section title l =
    if l <> [] then begin
      line "%s:\n" title;
      List.iter (fun (k, v) -> line "  %-24s %d\n" k v) l
    end
  in
  section "scheduler health" m.Runner.sched_counters;
  section "fault injection" m.Runner.fault_stats;
  line "invariant violations: %d\n" m.Runner.invariant_violations;
  List.iter
    (fun (v : Runner.vm_metrics) ->
      if v.Runner.watchdog_demotions > 0 || v.Runner.invariant_violations > 0
      then
        line "  %-24s demotions=%d violations=%d\n" v.Runner.vm_name
          v.Runner.watchdog_demotions v.Runner.invariant_violations)
    m.Runner.vms;
  let violations = Sim_vmm.Vmm.invariant_violations s.Scenario.vmm in
  List.iteri
    (fun i msg -> if i < 5 then line "  violation: %s\n" msg)
    violations;
  if List.length violations > 5 then
    line "  ... and %d more\n" (List.length violations - 5);
  Buffer.contents buf

let series_csv series = Csv.to_string (Csv.of_series series)

let trace_csv entries =
  let header = [ "time_cycles"; "wait_cycles"; "log2_wait"; "lock_id" ] in
  let rows =
    List.map
      (fun (e : Sim_guest.Monitor.trace_entry) ->
        [
          string_of_int e.Sim_guest.Monitor.time;
          string_of_int e.Sim_guest.Monitor.wait;
          (if e.Sim_guest.Monitor.wait >= 1 then
             string_of_int (Sim_engine.Units.log2_floor e.Sim_guest.Monitor.wait)
           else "0");
          string_of_int e.Sim_guest.Monitor.lock_id;
        ])
      entries
  in
  Csv.to_string (header :: rows)
