open Asman
module Json = Sim_obs.Json

type vm = {
  v_name : string;
  v_weight : int;
  v_vcpus : int;
  v_workload : Scenario.workload_desc option;
}

type provenance = {
  pv_record : string option;
      (** run-registry record id of the check run that found it *)
  pv_seed : int64;  (** the case seed that generated the failing spec *)
}

type cluster = {
  cl_hosts : int;
  cl_trace_seed : int64;  (** seeds {!Sim_cluster.Vtrace.generate} *)
  cl_policy : string;  (** placement policy name *)
  cl_dist : string;  (** lifetime distribution name *)
  cl_vms : int;  (** trace length *)
}

type t = {
  seed : int64;  (** the scenario engine's seed *)
  sched : string;
  scale : float;
  work_conserving : bool;
  faults : string;  (** profile name, ["none"] for clean runs *)
  queue : string;  (** ["wheel"] or ["heap"] *)
  sim_jobs : int;
      (** --sim-jobs; >= 2 runs the scenario as that many decoupled
          sub-hosts on the PDES fabric, judged by the
          worker-invariance oracle instead of the trace oracles *)
  sockets : int;
  cores_per_socket : int;
  horizon_sec : float;
  check_fairness : bool;
      (** generator-certified fairness shape: capped mode, restarting
          CPU-bound workloads, distinct weights — the only shape where
          the proportionality oracle's Eq. (2) prediction is exact *)
  accounting : string;  (** ["precise"] (default) or ["sampled"] *)
  check_entitlement : bool;
      (** generator-certified attack shape: attacker VMs (recognisable
          from their workload descriptors) plus sustained CPU-bound
          victims — the only shape where the entitlement oracle's
          attacker-vs-victim comparison is sound *)
  vms : vm list;
  cluster : cluster option;
      (** [Some _]: the case is a whole simulated datacenter — hosts
          on the PDES fabric driven by a seeded arrival/departure
          trace — judged by the cluster-conservation and
          placement-determinism oracles instead of the coupled trace
          oracles. [None] (the default when absent from older corpus
          JSON) keeps the single-host path. *)
  provenance : provenance option;
      (** corpus bookkeeping, not an input: which check run and case
          seed produced this spec. [None] on freshly generated cases;
          stamped onto shrunk repros by {!Check.write_repros}. *)
}

let pcpus t = t.sockets * t.cores_per_socket

(* ----- JSON ----- *)

let workload_to_json (w : Scenario.workload_desc) =
  let o kind fields = Json.Obj (("kind", Json.String kind) :: fields) in
  let i n v = (n, Json.Int v) in
  match w with
  | Scenario.W_nas name -> o "nas" [ ("bench", Json.String name) ]
  | Scenario.W_speccpu name -> o "speccpu" [ ("bench", Json.String name) ]
  | Scenario.W_jbb { warehouses } -> o "jbb" [ i "warehouses" warehouses ]
  | Scenario.W_compute { threads; chunks; chunk_us } ->
    o "compute" [ i "threads" threads; i "chunks" chunks; i "chunk_us" chunk_us ]
  | Scenario.W_lock_storm { threads; rounds; cs_us; think_us } ->
    o "lock_storm"
      [ i "threads" threads; i "rounds" rounds; i "cs_us" cs_us;
        i "think_us" think_us ]
  | Scenario.W_barrier { threads; rounds; compute_us; cv } ->
    o "barrier"
      [ i "threads" threads; i "rounds" rounds; i "compute_us" compute_us;
        ("cv", Json.Float cv) ]
  | Scenario.W_ping_pong { rounds; compute_us } ->
    o "ping_pong" [ i "rounds" rounds; i "compute_us" compute_us ]
  | Scenario.W_random { threads; ops; nlocks; prog_seed } ->
    o "random"
      [ i "threads" threads; i "ops" ops; i "nlocks" nlocks;
        i "prog_seed" prog_seed ]
  | Scenario.W_attack_dodge { threads } -> o "attack_dodge" [ i "threads" threads ]
  | Scenario.W_attack_steal { threads } -> o "attack_steal" [ i "threads" threads ]
  | Scenario.W_attack_launder { threads; phased } ->
    o "attack_launder" [ i "threads" threads; ("phased", Json.Bool phased) ]

let workload_of_json j : Scenario.workload_desc =
  let geti n = Json.get n j ~of_:Json.to_int in
  match Json.get "kind" j ~of_:Json.to_string_v with
  | "nas" -> Scenario.W_nas (Json.get "bench" j ~of_:Json.to_string_v)
  | "speccpu" -> Scenario.W_speccpu (Json.get "bench" j ~of_:Json.to_string_v)
  | "jbb" -> Scenario.W_jbb { warehouses = geti "warehouses" }
  | "compute" ->
    Scenario.W_compute
      { threads = geti "threads"; chunks = geti "chunks";
        chunk_us = geti "chunk_us" }
  | "lock_storm" ->
    Scenario.W_lock_storm
      { threads = geti "threads"; rounds = geti "rounds"; cs_us = geti "cs_us";
        think_us = geti "think_us" }
  | "barrier" ->
    Scenario.W_barrier
      { threads = geti "threads"; rounds = geti "rounds";
        compute_us = geti "compute_us";
        cv = Json.get "cv" j ~of_:Json.to_float }
  | "ping_pong" ->
    Scenario.W_ping_pong
      { rounds = geti "rounds"; compute_us = geti "compute_us" }
  | "random" ->
    Scenario.W_random
      { threads = geti "threads"; ops = geti "ops"; nlocks = geti "nlocks";
        prog_seed = geti "prog_seed" }
  | "attack_dodge" -> Scenario.W_attack_dodge { threads = geti "threads" }
  | "attack_steal" -> Scenario.W_attack_steal { threads = geti "threads" }
  | "attack_launder" ->
    Scenario.W_attack_launder
      { threads = geti "threads";
        phased = Json.get "phased" j ~of_:Json.to_bool }
  | k -> raise (Json.Parse_error (Printf.sprintf "unknown workload kind %S" k))

let vm_to_json v =
  Json.Obj
    [
      ("name", Json.String v.v_name);
      ("weight", Json.Int v.v_weight);
      ("vcpus", Json.Int v.v_vcpus);
      ( "workload",
        match v.v_workload with
        | None -> Json.Null
        | Some w -> workload_to_json w );
    ]

let vm_of_json j =
  {
    v_name = Json.get "name" j ~of_:Json.to_string_v;
    v_weight = Json.get "weight" j ~of_:Json.to_int;
    v_vcpus = Json.get "vcpus" j ~of_:Json.to_int;
    v_workload =
      (match Json.member "workload" j with
      | None | Some Json.Null -> None
      | Some w -> Some (workload_of_json w));
  }

let to_json t =
  Json.Obj
    ([
      (* int64 seeds exceed JSON's exact-integer range: as a string *)
      ("seed", Json.String (Int64.to_string t.seed));
      ("sched", Json.String t.sched);
      ("scale", Json.Float t.scale);
      ("work_conserving", Json.Bool t.work_conserving);
      ("faults", Json.String t.faults);
      ("queue", Json.String t.queue);
      ("sim_jobs", Json.Int t.sim_jobs);
      ("sockets", Json.Int t.sockets);
      ("cores_per_socket", Json.Int t.cores_per_socket);
      ("horizon_sec", Json.Float t.horizon_sec);
      ("check_fairness", Json.Bool t.check_fairness);
      ("accounting", Json.String t.accounting);
      ("check_entitlement", Json.Bool t.check_entitlement);
      ("vms", Json.List (List.map vm_to_json t.vms));
    ]
    @
    (* absent for single-host specs: pre-cluster corpus files and
       their diffs stay untouched *)
    (match t.cluster with
    | None -> []
    | Some c ->
      [
        ( "cluster",
          Json.Obj
            [
              ("hosts", Json.Int c.cl_hosts);
              (* int64, same exact-range concern as the spec seed *)
              ("trace_seed", Json.String (Int64.to_string c.cl_trace_seed));
              ("policy", Json.String c.cl_policy);
              ("dist", Json.String c.cl_dist);
              ("vms", Json.Int c.cl_vms);
            ] );
      ])
    @
    (* provenance is bookkeeping: absent keys keep pre-provenance
       corpus files and their diffs untouched *)
    (match t.provenance with
    | None -> []
    | Some p ->
      [ ("found_seed", Json.String (Int64.to_string p.pv_seed)) ]
      @ (match p.pv_record with
        | None -> []
        | Some id -> [ ("found_record", Json.String id) ])))

let of_json j =
  {
    seed =
      (let s = Json.get "seed" j ~of_:Json.to_string_v in
       match Int64.of_string_opt s with
       | Some v -> v
       | None -> raise (Json.Parse_error (Printf.sprintf "bad seed %S" s)));
    sched = Json.get "sched" j ~of_:Json.to_string_v;
    scale = Json.get "scale" j ~of_:Json.to_float;
    work_conserving = Json.get "work_conserving" j ~of_:Json.to_bool;
    faults = Json.get "faults" j ~of_:Json.to_string_v;
    queue = Json.get "queue" j ~of_:Json.to_string_v;
    (* absent in pre-sim-jobs corpus files: one host *)
    sim_jobs =
      (match Json.member "sim_jobs" j with
      | None -> 1
      | Some v -> Json.to_int v);
    sockets = Json.get "sockets" j ~of_:Json.to_int;
    cores_per_socket = Json.get "cores_per_socket" j ~of_:Json.to_int;
    horizon_sec = Json.get "horizon_sec" j ~of_:Json.to_float;
    check_fairness = Json.get "check_fairness" j ~of_:Json.to_bool;
    (* both absent in pre-accounting corpus files: precise accounting,
       oracle ungated — the committed corpus replays unchanged *)
    accounting =
      (match Json.member "accounting" j with
      | None -> "precise"
      | Some v -> Json.to_string_v v);
    check_entitlement =
      (match Json.member "check_entitlement" j with
      | None -> false
      | Some v -> Json.to_bool v);
    vms = Json.get "vms" j ~of_:(fun v -> List.map vm_of_json (Json.to_list v));
    (* absent in pre-cluster corpus files: single-host, as before *)
    cluster =
      (match Json.member "cluster" j with
      | None | Some Json.Null -> None
      | Some c ->
        let s = Json.get "trace_seed" c ~of_:Json.to_string_v in
        let cl_trace_seed =
          match Int64.of_string_opt s with
          | Some v -> v
          | None ->
            raise (Json.Parse_error (Printf.sprintf "bad trace_seed %S" s))
        in
        Some
          {
            cl_hosts = Json.get "hosts" c ~of_:Json.to_int;
            cl_trace_seed;
            cl_policy = Json.get "policy" c ~of_:Json.to_string_v;
            cl_dist = Json.get "dist" c ~of_:Json.to_string_v;
            cl_vms = Json.get "vms" c ~of_:Json.to_int;
          });
    provenance =
      (match Json.member "found_seed" j with
      | None -> None
      | Some v ->
        let s = Json.to_string_v v in
        let pv_seed =
          match Int64.of_string_opt s with
          | Some sv -> sv
          | None ->
            raise (Json.Parse_error (Printf.sprintf "bad found_seed %S" s))
        in
        Some
          {
            pv_seed;
            pv_record =
              (match Json.member "found_record" j with
              | None | Some Json.Null -> None
              | Some r -> Some (Json.to_string_v r));
          });
  }

let to_string t = Json.to_string ~indent:true (to_json t)
let of_string s = of_json (Json.of_string s)

let load file =
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* ----- validation / realisation ----- *)

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.sockets <= 0 || t.cores_per_socket <= 0 then err "empty topology"
  else if t.horizon_sec <= 0. then err "non-positive horizon"
  else if t.scale <= 0. then err "non-positive scale"
  else if t.vms = [] && t.cluster = None then err "no VMs"
  else if Config.sched_of_name t.sched = None then
    err "unknown scheduler %S" t.sched
  else if Sim_faults.Fault.of_name t.faults = None then
    err "unknown fault profile %S" t.faults
  else if t.queue <> "wheel" && t.queue <> "heap" then
    err "unknown queue backend %S" t.queue
  else if t.sim_jobs < 1 then err "non-positive sim_jobs"
  else if Sim_vmm.Vmm.accounting_of_name t.accounting = None then
    err "unknown accounting discipline %S" t.accounting
  else if
    List.exists (fun v -> v.v_weight <= 0 || v.v_vcpus <= 0) t.vms
  then err "non-positive VM weight or vcpus"
  else
    match t.cluster with
    | Some c ->
      (* mirror Cluster.build / Vtrace.generate's preconditions so a
         cluster case (or a shrink candidate derived from one) fails
         validation instead of crashing the builder *)
      if t.sim_jobs > 1 then err "cluster excludes sim_jobs > 1"
      else if t.faults <> "none" then err "cluster excludes fault injection"
      else if t.vms <> [] then
        err "cluster cases draw their VMs from the trace, not [vms]"
      else if c.cl_hosts < 1 then err "cluster needs at least one host"
      else if c.cl_vms < 1 then err "empty cluster trace"
      else if Sim_cluster.Placement.policy_of_name c.cl_policy = None then
        err "unknown placement policy %S" c.cl_policy
      else if Sim_cluster.Vtrace.dist_of_name c.cl_dist = None then
        err "unknown lifetime distribution %S" c.cl_dist
      else Ok ()
    | None ->
      if t.sim_jobs < 2 then Ok ()
      (* mirror Decouple.build's preconditions so a decoupled case (or
         a shrink candidate derived from one) fails validation instead
         of crashing the builder *)
      else if t.faults <> "none" then err "decouple excludes fault injection"
      else if t.sockets mod t.sim_jobs <> 0 then
        err "%d sockets cannot split into %d shards" t.sockets t.sim_jobs
      else if List.length t.vms < t.sim_jobs then
        err "decouple needs at least one VM per shard"
      else if List.for_all (fun v -> v.v_workload = None) t.vms then
        err "decouple needs a workload VM"
      else Ok ()

let sched_kind t =
  match Config.sched_of_name t.sched with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Spec.sched_kind: %S" t.sched)

let queue_kind t =
  match t.queue with
  | "heap" -> Sim_engine.Engine.Heap_queue
  | _ -> Sim_engine.Engine.Wheel_queue

let fault_profile t =
  match Sim_faults.Fault.of_name t.faults with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Spec.fault_profile: %S" t.faults)

let accounting_mode t =
  match Sim_vmm.Vmm.accounting_of_name t.accounting with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Spec.accounting_mode: %S" t.accounting)

let cluster_policy t =
  match t.cluster with
  | Some c -> (
    match Sim_cluster.Placement.policy_of_name c.cl_policy with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Spec.cluster_policy: %S" c.cl_policy))
  | None -> invalid_arg "Spec.cluster_policy: not a cluster spec"

let cluster_dist t =
  match t.cluster with
  | Some c -> (
    match Sim_cluster.Vtrace.dist_of_name c.cl_dist with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Spec.cluster_dist: %S" c.cl_dist))
  | None -> invalid_arg "Spec.cluster_dist: not a cluster spec"

let vm_descs t =
  List.map
    (fun v ->
      {
        Scenario.vd_name = v.v_name;
        vd_weight = v.v_weight;
        vd_vcpus = v.v_vcpus;
        vd_workload = v.v_workload;
      })
    t.vms
