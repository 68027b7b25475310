open Asman

(* Greedy shrinking in a fixed priority order (shrink the cluster —
   hosts, then trace length — then remove VMs, then shrink workloads,
   then VCPU counts, then drop faults, then halve the horizon): try
   each candidate in order, keep the first that still fails, restart
   from it. Candidate evaluation re-runs the full case, so the budget
   bounds total simulations. *)

let half n = max 1 (n / 2)

(* Strictly-smaller workload rewrites, most aggressive first. The
   benchmark models shrink onto small synthetic equivalents so a
   minimal repro never depends on a benchmark parameter table. *)
let shrink_workload (w : Scenario.workload_desc) : Scenario.workload_desc list =
  match w with
  | Scenario.W_nas _ ->
    [
      Scenario.W_barrier { threads = 2; rounds = 5; compute_us = 200; cv = 0.1 };
      Scenario.W_compute { threads = 2; chunks = 4; chunk_us = 500 };
    ]
  | Scenario.W_speccpu _ ->
    (* stay sustained: a finite rewrite would idle the VM and turn a
       fairness failure into a meaningless one *)
    [ Scenario.W_compute { threads = 2; chunks = 1_000_000; chunk_us = 500 } ]
  | Scenario.W_jbb { warehouses } ->
    (if warehouses > 2 then
       [ Scenario.W_jbb { warehouses = half warehouses } ]
     else [])
    @ [
        Scenario.W_lock_storm
          { threads = 2; rounds = 100_000; cs_us = 2; think_us = 30 };
      ]
  | Scenario.W_compute { threads; chunks; chunk_us } ->
    List.filter_map
      (fun x -> x)
      [
        (if threads > 1 then
           Some (Scenario.W_compute { threads = half threads; chunks; chunk_us })
         else None);
        (if chunks > 1 then
           Some (Scenario.W_compute { threads; chunks = half chunks; chunk_us })
         else None);
      ]
  | Scenario.W_lock_storm { threads; rounds; cs_us; think_us } ->
    List.filter_map
      (fun x -> x)
      [
        (if threads > 2 then
           Some
             (Scenario.W_lock_storm
                { threads = half threads; rounds; cs_us; think_us })
         else None);
        (if rounds > 1 then
           Some
             (Scenario.W_lock_storm
                { threads; rounds = half rounds; cs_us; think_us })
         else None);
      ]
  | Scenario.W_barrier { threads; rounds; compute_us; cv } ->
    List.filter_map
      (fun x -> x)
      [
        (if threads > 2 then
           Some
             (Scenario.W_barrier
                { threads = half threads; rounds; compute_us; cv })
         else None);
        (if rounds > 1 then
           Some
             (Scenario.W_barrier
                { threads; rounds = half rounds; compute_us; cv })
         else None);
      ]
  | Scenario.W_ping_pong { rounds; compute_us } ->
    if rounds > 1 then
      [ Scenario.W_ping_pong { rounds = half rounds; compute_us } ]
    else []
  | Scenario.W_random { threads; ops; nlocks; prog_seed } ->
    List.filter_map
      (fun x -> x)
      [
        (if threads > 1 then
           Some
             (Scenario.W_random { threads = half threads; ops; nlocks; prog_seed })
         else None);
        (if ops > 1 then
           Some
             (Scenario.W_random { threads; ops = half ops; nlocks; prog_seed })
         else None);
        (if nlocks > 1 then
           Some (Scenario.W_random { threads; ops; nlocks = 1; prog_seed })
         else None);
      ]
  (* attack programs are already the minimal semantic unit — only the
     thread count shrinks; rewriting them into benign workloads would
     change the question (is the attack contained?), not the size *)
  | Scenario.W_attack_dodge { threads } ->
    if threads > 1 then [ Scenario.W_attack_dodge { threads = half threads } ]
    else []
  | Scenario.W_attack_steal { threads } ->
    if threads > 1 then [ Scenario.W_attack_steal { threads = half threads } ]
    else []
  | Scenario.W_attack_launder { threads; phased } ->
    if threads > 1 then
      [ Scenario.W_attack_launder { threads = half threads; phased } ]
    else []

let replace_nth l n x = List.mapi (fun i v -> if i = n then x else v) l

let candidates (spec : Spec.t) : Spec.t list =
  let vms = spec.Spec.vms in
  (* 0. shrink the datacenter: fewer hosts first (a conservation bug
     on two hosts beats one on four), then a shorter trace — halving
     before decrementing. The per-entry trace streams make a shorter
     trace an exact prefix, so survivors keep their arrival times. *)
  let shrink_cluster =
    match spec.Spec.cluster with
    | None -> []
    | Some c ->
      (if c.Spec.cl_hosts > 1 then
         [
           {
             spec with
             Spec.cluster = Some { c with Spec.cl_hosts = c.Spec.cl_hosts - 1 };
           };
         ]
       else [])
      @ (if c.Spec.cl_vms > 1 then
           [
             {
               spec with
               Spec.cluster = Some { c with Spec.cl_vms = half c.Spec.cl_vms };
             };
             {
               spec with
               Spec.cluster = Some { c with Spec.cl_vms = c.Spec.cl_vms - 1 };
             };
           ]
         else [])
  in
  (* 1. drop whole VMs *)
  let drop_vm =
    if List.length vms > 1 then
      List.mapi
        (fun i _ ->
          { spec with Spec.vms = List.filteri (fun j _ -> j <> i) vms })
        vms
    else []
  in
  (* 2. shrink workloads — except on fairness and entitlement shapes,
     whose oracles are only sound under the generator-certified
     sustained-demand workloads; rewriting the workload there changes
     the question, not just the size *)
  let shrink_wl =
    if spec.Spec.check_fairness || spec.Spec.check_entitlement then []
    else
      List.concat
      (List.mapi
         (fun i (vm : Spec.vm) ->
           match vm.Spec.v_workload with
           | None -> []
           | Some w ->
             List.map
               (fun w' ->
                 {
                   spec with
                   Spec.vms =
                     replace_nth vms i { vm with Spec.v_workload = Some w' };
                 })
               (shrink_workload w))
         vms)
  in
  (* 3. shrink VCPU counts — victim VCPU counts carry the entitlement
     shape's saturation certificate (demand must exceed capacity, or
     work-conserving slack reads as theft), so they are pinned there *)
  let shrink_vcpus =
    if spec.Spec.check_entitlement then []
    else
      List.concat
      (List.mapi
         (fun i (vm : Spec.vm) ->
           if vm.Spec.v_vcpus > 1 then
             [
               {
                 spec with
                 Spec.vms =
                   replace_nth vms i
                     { vm with Spec.v_vcpus = half vm.Spec.v_vcpus };
               };
             ]
           else [])
         vms)
  in
  (* 4. drop the fault profile *)
  let drop_faults =
    if spec.Spec.faults <> "none" then [ { spec with Spec.faults = "none" } ]
    else []
  in
  (* 5. halve the horizon *)
  let shrink_horizon =
    if spec.Spec.horizon_sec > 0.05 then
      [ { spec with Spec.horizon_sec = Float.max 0.05 (spec.Spec.horizon_sec /. 2.) } ]
    else []
  in
  shrink_cluster @ drop_vm @ shrink_wl @ shrink_vcpus @ drop_faults
  @ shrink_horizon

let minimize ?(budget = 200) ~(fails : Spec.t -> Oracle.failure list) spec
    ~initial_failures =
  (* Only candidates reproducing the *same* oracle's failure count:
     accepting any failure would let the search drift onto an
     unrelated (often spec-degeneracy-induced) bug and "minimize"
     that instead. *)
  let target_oracle =
    match initial_failures with
    | { Oracle.oracle; _ } :: _ -> oracle
    | [] -> invalid_arg "Shrink.minimize: initial_failures is empty"
  in
  let same_bug fs =
    List.exists (fun f -> f.Oracle.oracle = target_oracle) fs
  in
  let runs = ref 0 in
  let rec go current current_failures =
    if !runs >= budget then (current, current_failures)
    else begin
      let rec try_candidates = function
        | [] -> None
        | c :: rest ->
          if !runs >= budget then None
          else begin
            incr runs;
            match fails c with
            | fs when same_bug fs -> Some (c, fs)
            | _ -> try_candidates rest
          end
      in
      match try_candidates (candidates current) with
      | Some (c, fs) -> go c fs
      | None -> (current, current_failures)
    end
  in
  go spec initial_failures
