module Trace = Sim_obs.Trace
module Timeline = Sim_obs.Timeline

type vm_obs = {
  o_name : string;
  o_domain : int;
  o_vcpus : int array;
  o_weight : int;
  o_concurrent : bool;
  o_final_credits : int array;
  o_online_rate : float;
  o_expected_online : float;
  o_attacker : bool;
}

let credit_unit = Sim_vmm.Credit.default_credit_unit

type input = {
  pcpus : int;
  slot_cycles : int;
  slots_per_period : int;
  work_conserving : bool;
  clean : bool;
  sched : Asman.Config.sched_kind;
  check_fairness : bool;
  accounting : Sim_vmm.Vmm.accounting;
  check_entitlement : bool;
  started : int;
  finished : int;
  entries : Trace.entry list;
  trace_dropped : int;
  dom0 : int;
  dom0_vcpus : int array;
  vms : vm_obs list;
  runtime_violations : int;
  runtime_messages : string list;
  structural : (unit, string) result;
  probe_errors : string list;
}

type verdict = Pass | Skip of string | Fail of string

type t = { name : string; check : input -> verdict }

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* ----- shared reconstruction helpers ----- *)

let guest_vcpu_set input =
  let s = Hashtbl.create 32 in
  List.iter
    (fun vm -> Array.iter (fun id -> Hashtbl.replace s id vm.o_domain) vm.o_vcpus)
    input.vms;
  s

let known_domains input =
  let s = Hashtbl.create 8 in
  Hashtbl.replace s input.dom0 ();
  List.iter (fun vm -> Hashtbl.replace s vm.o_domain ()) input.vms;
  s

let known_vcpus input =
  let s = guest_vcpu_set input in
  Array.iter (fun id -> Hashtbl.replace s id input.dom0) input.dom0_vcpus;
  s

let timeline input =
  Timeline.of_entries ~stop_at:input.finished ~pcpus:input.pcpus input.entries

(* Cycles [vcpu] spent running inside the measurement window. *)
let window_run_cycles input tl ~vcpu =
  List.fold_left
    (fun acc (a, b) ->
      let a = max a input.started and b = min b input.finished in
      if b > a then acc + (b - a) else acc)
    0
    (Timeline.running_intervals tl ~vcpu)

(* The scheduler families oracles gate on; [Asman_oov] is neither. *)
let is_asman input =
  match input.sched with Asman.Config.Asman -> true | _ -> false

let is_con input =
  match input.sched with Asman.Config.Cosched_static -> true | _ -> false

(* ----- oracles ----- *)

(* Runtime + structural invariants: the per-period checker recorded
   nothing, the mid-run probes saw a consistent structure, and the
   final state is consistent. Catches lost/duplicated VCPUs across
   runqueue relocations (every VCPU in exactly the right number of
   queues) among everything else lib/vmm's checker audits. *)
let invariants =
  {
    name = "invariants";
    check =
      (fun input ->
        if input.runtime_violations > 0 then
          failf "%d runtime invariant violation(s): %s"
            input.runtime_violations
            (match input.runtime_messages with m :: _ -> m | [] -> "?")
        else
          match (input.probe_errors, input.structural) with
          | e :: _, _ -> failf "mid-run structural check: %s" e
          | [], Error e -> failf "final structural check: %s" e
          | [], Ok () -> Pass);
  }

(* Every VCPU's final credit within [floor, cap] from lib/vmm/credit.ml. *)
let credit_bounds =
  {
    name = "credit-bounds";
    check =
      (fun input ->
        let floor = -(credit_unit * input.slots_per_period) in
        let cap =
          Sim_vmm.Credit.cap ~credit_unit
            ~slots_per_period:input.slots_per_period
        in
        let bad = ref None in
        List.iter
          (fun vm ->
            Array.iteri
              (fun i c ->
                if (c < floor || c > cap) && !bad = None then
                  bad := Some (vm.o_name, i, c))
              vm.o_final_credits)
          input.vms;
        match !bad with
        | Some (vm, i, c) ->
          failf "%s vcpu[%d] credit %d outside [%d, %d]" vm i c floor cap
        | None -> Pass);
  }

(* Credit conservation, burn side: time actually run must be paid
   for. The timeline gives an independent measure of guest online
   cycles; Credit_account events say what was billed. Burn is
   pro-rated per span ([credit_unit * ran / slot]), so total billed
   ~= online * unit / slot; a generous factor-2 band in both
   directions keeps rounding, span-capping and window-edge spans from
   ever tripping a correct scheduler, while a scheduler that forgets
   to burn (billed = 0) is far outside it. *)
let credit_burn =
  {
    name = "credit-burn";
    check =
      (fun input ->
        if not input.clean then Skip "faulty run"
        else if input.trace_dropped > 0 then Skip "trace ring overflowed"
        else begin
          let guests = guest_vcpu_set input in
          let tl = timeline input in
          let online =
            Hashtbl.fold
              (fun vcpu _ acc -> acc + window_run_cycles input tl ~vcpu)
              guests 0
          in
          let billed =
            List.fold_left
              (fun acc (e : Trace.entry) ->
                match e.Trace.ev with
                | Trace.Credit_account { vcpu; burned; _ }
                  when e.Trace.at > input.started
                       && e.Trace.at <= input.finished
                       && Hashtbl.mem guests vcpu ->
                  acc + burned
                | _ -> acc)
              0 input.entries
          in
          let expected =
            int_of_float
              (float_of_int online /. float_of_int input.slot_cycles
              *. float_of_int credit_unit)
          in
          if expected < 20 * credit_unit then
            Skip "too little guest run time to judge"
          else if 2 * billed < expected then
            failf "billed %d credit for ~%d expected (online %d cycles)"
              billed expected online
          else if billed > (2 * expected) + credit_unit then
            failf "billed %d credit for ~%d expected (over-burn)" billed
              expected
          else Pass
        end);
  }

(* Equation (2) proportionality for capped runs: only on the
   generator's certified fairness shape (sustained pure-compute
   demand, enforced shares, no faults). One-sided on purpose: the
   failure signature of a broken share mechanism is a VM *starved*
   below its weighted share. Running above it is legal slack
   absorption — [charge] floors debt at one period ("cannot be
   starved for many periods"), dom0's share mostly idles, and both
   hand short-horizon surplus to whoever is hungriest. *)
let proportionality =
  {
    name = "proportionality";
    check =
      (fun input ->
        if not input.check_fairness then Skip "not a fairness-shape case"
        else if not input.clean then Skip "faulty run"
        else if is_con input then
          Skip "always-coschedule trades fairness for gang alignment"
        else begin
          let bad = ref None in
          List.iter
            (fun vm ->
              let e = vm.o_expected_online in
              (* near-saturated shares measure as ~1.0 regardless of
                 scheduler correctness: no signal, skip the VM *)
              if e > 0.01 && e < 0.85 && !bad = None then begin
                let tol = Float.max 0.1 (0.2 *. e) in
                if e -. vm.o_online_rate > tol then
                  bad := Some (vm.o_name, vm.o_online_rate, e, tol)
              end)
            input.vms;
          match !bad with
          | Some (vm, got, want, tol) ->
            failf "%s starved: online rate %.3f vs expected %.3f (tol %.3f)"
              vm got want tol
          | None -> Pass
        end);
  }

(* Entitlement containment under precise accounting: only on the
   generator's certified attack shape (attacker VMs running the
   scheduler-attack guests of [Sim_workloads.Attack], victims running
   sustained CPU-bound demand). Work-conserving slack makes an
   absolute epsilon-band unsound — a lone hungry VM may legitimately
   absorb the whole host — so the test is relative: the attackers'
   aggregate attained/entitled ratio must not dominate the victims'.
   An attacker that escapes accounting keeps maximal credit and with
   it strict dispatch priority, landing at several times the victims'
   ratio; a contained attacker lands within noise of it. Summing over
   all attacker VMs is what catches the laundering pair, each half of
   which looks individually modest. *)
let entitlement =
  {
    name = "entitlement";
    check =
      (fun input ->
        if not input.check_entitlement then Skip "not an attack-shape case"
        else if input.accounting <> Sim_vmm.Vmm.Precise then
          Skip "sampled accounting: theft is modeled behaviour, not a bug"
        else if not input.clean then Skip "faulty run"
        else begin
          let norm vms =
            let att, ent =
              List.fold_left
                (fun (a, e) vm ->
                  let v = float_of_int (Array.length vm.o_vcpus) in
                  ( a +. (vm.o_online_rate *. v),
                    e +. (vm.o_expected_online *. v) ))
                (0., 0.) vms
            in
            if ent <= 0. then None else Some (att /. ent)
          in
          let attackers, victims =
            List.partition (fun vm -> vm.o_attacker) input.vms
          in
          match (norm attackers, norm victims) with
          | None, _ -> Skip "no attacker entitlement to compare"
          | _, None -> Skip "no victim entitlement to compare"
          | Some a, Some v ->
            if a > 1.3 && a > 2.0 *. Float.max v 0.10 then
              failf
                "attackers attained %.2fx their entitlement while victims \
                 attained %.2fx"
                a v
            else Pass
        end);
  }

(* Gang-coschedule atomicity: at each gang launch, every sibling the
   trace proves Ready must be running within W = slot/4 — far above
   the IPI latency (~2 us) that a correct launch needs, far below the
   next slot boundary (10 ms) that would pick a dropped sibling up
   anyway. Heavily gated to stay sound: clean single-gang windows
   only, enough PCPUs for the whole gang, and a sibling parked behind
   a running sibling (which the launch legitimately skips) is
   excused. *)
let gang_atomicity =
  {
    name = "gang-atomicity";
    check =
      (fun input ->
        if not input.clean then Skip "faulty run"
        else if input.trace_dropped > 0 then Skip "trace ring overflowed"
        else if not (is_asman input || is_con input) then
          Skip "scheduler has no traced gang protocol"
        else begin
          let asman = is_asman input in
          let vm_by_domain = Hashtbl.create 8 in
          List.iter
            (fun vm -> Hashtbl.replace vm_by_domain vm.o_domain vm)
            input.vms;
          let concurrent_vms =
            List.filter (fun vm -> vm.o_concurrent) input.vms
          in
          let tl = timeline input in
          let intervals = Hashtbl.create 64 in
          let intervals_of vcpu =
            match Hashtbl.find_opt intervals vcpu with
            | Some l -> l
            | None ->
              let l = Timeline.running_intervals tl ~vcpu in
              Hashtbl.replace intervals vcpu l;
              l
          in
          let runs_within vcpu ~from_ ~until =
            List.exists
              (fun (a, b) -> a <= until && b > from_)
              (intervals_of vcpu)
          in
          (* Vcrd_change times per domain, for High-through-W gating. *)
          let vcrd_events = Hashtbl.create 8 in
          List.iter
            (fun (e : Trace.entry) ->
              match e.Trace.ev with
              | Trace.Vcrd_change { domain; high } ->
                let l =
                  Option.value ~default:[]
                    (Hashtbl.find_opt vcrd_events domain)
                in
                Hashtbl.replace vcrd_events domain ((e.Trace.at, high) :: l)
              | _ -> ())
            input.entries;
          let drops_low domain ~from_ ~until =
            match Hashtbl.find_opt vcrd_events domain with
            | None -> false
            | Some l ->
              List.exists
                (fun (at, high) -> (not high) && at > from_ && at <= until)
                l
          in
          let w = input.slot_cycles / 4 in
          (* One forward pass: per-PCPU occupant, per-VCPU last known
             state, the set of High domains; judge each Gang_launch
             in context. (Wakes are untraced, so a VCPU we think is
             Blocked may be Ready — the under-approximation only
             excuses siblings, never accuses one.) *)
          let occupant = Array.make input.pcpus (-1) in
          let state = Hashtbl.create 64 (* vcpu -> `Ready of home | `Run | `Blocked *) in
          let high = Hashtbl.create 8 in
          let violation = ref None in
          List.iter
            (fun (e : Trace.entry) ->
              match e.Trace.ev with
              | Trace.Sched_switch { pcpu; vcpu; _ } ->
                if occupant.(pcpu) >= 0 then
                  Hashtbl.replace state occupant.(pcpu) (`Ready pcpu);
                occupant.(pcpu) <- vcpu;
                Hashtbl.replace state vcpu `Run
              | Trace.Sched_idle { pcpu } ->
                if occupant.(pcpu) >= 0 then begin
                  Hashtbl.replace state occupant.(pcpu) (`Ready pcpu);
                  occupant.(pcpu) <- -1
                end
              | Trace.Sched_block { pcpu; vcpu; _ } ->
                Hashtbl.replace state vcpu `Blocked;
                if occupant.(pcpu) = vcpu then occupant.(pcpu) <- -1
              | Trace.Vcrd_change { domain; high = h } ->
                if h then Hashtbl.replace high domain ()
                else Hashtbl.remove high domain
              | Trace.Gang_launch { domain; pcpu = _; ipis = _; retry }
                when not retry -> begin
                match Hashtbl.find_opt vm_by_domain domain with
                | None -> ()
                | Some vm ->
                  let t = e.Trace.at in
                  let single_gang =
                    if asman then
                      Hashtbl.length high = 1 && Hashtbl.mem high domain
                    else
                      match concurrent_vms with
                      | [ only ] -> only.o_domain = domain
                      | _ -> false
                  in
                  let fits = Array.length vm.o_vcpus <= input.pcpus in
                  let in_window = t + w <= input.finished in
                  let stays_high =
                    (not asman)
                    || not (drops_low domain ~from_:t ~until:(t + w))
                  in
                  if
                    single_gang && fits && in_window && stays_high
                    && !violation = None
                  then
                    Array.iter
                      (fun sib ->
                        match Hashtbl.find_opt state sib with
                        | Some (`Ready home) ->
                          (* launches skip a sibling queued behind a
                             running sibling; excuse it *)
                          let behind_sibling =
                            home >= 0 && home < input.pcpus
                            && occupant.(home) >= 0
                            && Array.exists
                                 (fun s -> s = occupant.(home))
                                 vm.o_vcpus
                          in
                          if
                            (not behind_sibling)
                            && not (runs_within sib ~from_:t ~until:(t + w))
                            && !violation = None
                          then
                            violation :=
                              Some
                                (Printf.sprintf
                                   "%s: gang launch at %d left ready vcpu \
                                    %d descheduled for > %d cycles"
                                   vm.o_name t sib w)
                        | _ -> ())
                      vm.o_vcpus
              end
              | _ -> ())
            input.entries;
          match !violation with Some m -> Fail m | None -> Pass
        end);
  }

(* No lost or duplicated VCPUs, as visible in the schedule: a VCPU
   never runs on two PCPUs at once (its running intervals are
   disjoint), and every scheduled id belongs to a created VCPU. The
   runqueue side (queued exactly once) is [invariants]'s job. *)
let vcpu_conservation =
  {
    name = "vcpu-conservation";
    check =
      (fun input ->
        if input.trace_dropped > 0 then Skip "trace ring overflowed"
        else begin
          let known = known_vcpus input in
          let unknown = ref None in
          List.iter
            (fun (e : Trace.entry) ->
              match e.Trace.ev with
              | Trace.Sched_switch { vcpu; _ } | Trace.Sched_block { vcpu; _ }
                ->
                if (not (Hashtbl.mem known vcpu)) && !unknown = None then
                  unknown := Some vcpu
              | _ -> ())
            input.entries;
          match !unknown with
          | Some v -> failf "schedule references unknown vcpu %d" v
          | None ->
            let tl = timeline input in
            let overlap = ref None in
            Hashtbl.iter
              (fun vcpu _ ->
                if !overlap = None then
                  let ivs =
                    List.sort compare (Timeline.running_intervals tl ~vcpu)
                  in
                  let rec scan = function
                    | (_, b) :: ((a2, _) :: _ as rest) ->
                      if a2 < b then overlap := Some (vcpu, a2)
                      else scan rest
                    | _ -> ()
                  in
                  scan ivs)
              known;
            (match !overlap with
            | Some (v, at) ->
              failf "vcpu %d running on two PCPUs around cycle %d" v at
            | None -> Pass)
        end);
  }

(* Virtual time never goes backwards in the trace. *)
let monotonic_time =
  {
    name = "monotonic-time";
    check =
      (fun input ->
        let rec scan prev = function
          | [] -> Pass
          | (e : Trace.entry) :: rest ->
            if e.Trace.at < prev then
              failf "trace time went backwards: %d after %d" e.Trace.at prev
            else if e.Trace.at > input.finished then
              failf "trace timestamp %d beyond window end %d" e.Trace.at
                input.finished
            else scan e.Trace.at rest
        in
        scan 0 input.entries);
  }

(* Field-level sanity of every traced event. *)
let trace_wellformed =
  {
    name = "trace-wellformed";
    check =
      (fun input ->
        let domains = known_domains input in
        let bad = ref None in
        let check_pcpu p =
          if (p < 0 || p >= input.pcpus) && !bad = None then
            bad := Some (Printf.sprintf "pcpu %d out of range" p)
        in
        let check_domain d =
          if (not (Hashtbl.mem domains d)) && !bad = None then
            bad := Some (Printf.sprintf "unknown domain %d" d)
        in
        List.iter
          (fun (e : Trace.entry) ->
            match e.Trace.ev with
            | Trace.Sched_switch { pcpu; domain; _ }
            | Trace.Sched_block { pcpu; domain; _ } ->
              check_pcpu pcpu;
              check_domain domain
            | Trace.Sched_idle { pcpu } -> check_pcpu pcpu
            | Trace.Credit_account { domain; burned; _ } ->
              check_domain domain;
              if burned < 0 && !bad = None then
                bad := Some (Printf.sprintf "negative burn %d" burned)
            | Trace.Vcrd_change { domain; _ } -> check_domain domain
            | Trace.Gang_launch { domain; pcpu; ipis; _ } ->
              check_domain domain;
              check_pcpu pcpu;
              if ipis < 1 && !bad = None then
                bad := Some "gang launch with no IPIs"
            | Trace.Gang_ack { domain; pcpu } ->
              check_domain domain;
              check_pcpu pcpu
            | Trace.Gang_timeout { domain; _ }
            | Trace.Gang_retry { domain; _ }
            | Trace.Gang_demote { domain; _ }
            | Trace.Invariant_violation { domain } ->
              if domain >= 0 then check_domain domain
            | _ -> ())
          input.entries;
        match !bad with Some m -> Fail m | None -> Pass);
  }

let catalogue =
  [
    invariants; credit_bounds; credit_burn; proportionality; entitlement;
    gang_atomicity; vcpu_conservation; monotonic_time; trace_wellformed;
  ]

type failure = { oracle : string; message : string }

let run_all input =
  List.filter_map
    (fun o ->
      match o.check input with
      | Pass | Skip _ -> None
      | Fail m -> Some { oracle = o.name; message = m })
    catalogue
