open Asman
module Json = Sim_obs.Json
module Fault = Sim_faults.Fault
module Placement = Sim_cluster.Placement
module Vtrace = Sim_cluster.Vtrace

type provenance = {
  pv_record : string option;
      (** run-registry record id of the check run that found it *)
  pv_seed : int64;  (** the case seed that generated the failing spec *)
}

type cluster = {
  cl_hosts : int;
  cl_trace_seed : int64;  (** seeds {!Sim_cluster.Vtrace.generate} *)
  cl_policy : Placement.policy;
  cl_dist : Vtrace.dist;  (** lifetime distribution *)
  cl_vms : int;  (** trace length *)
}

type t = {
  seed : int64;  (** the scenario engine's seed *)
  sched : Config.sched_kind;
  scale : float;
  work_conserving : bool;
  faults : Fault.profile;  (** {!Sim_faults.Fault.none} for clean runs *)
  queue : Sim_engine.Engine.queue_kind;
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
  accounting : Sim_vmm.Vmm.accounting;  (** [Precise] by default *)
  check_entitlement : bool;
      (** generator-certified attack shape: attacker VMs (recognisable
          from their workload descriptors) plus sustained CPU-bound
          victims — the only shape where the entitlement oracle's
          attacker-vs-victim comparison is sound *)
  vms : Scenario.vm_desc list;
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

let vm_to_json (v : Scenario.vm_desc) =
  Json.Obj
    [
      ("name", Json.String v.vd_name);
      ("weight", Json.Int v.vd_weight);
      ("vcpus", Json.Int v.vd_vcpus);
      ( "workload",
        match v.vd_workload with
        | None -> Json.Null
        | Some w -> workload_to_json w );
    ]

let vm_of_json j : Scenario.vm_desc =
  {
    vd_name = Json.get "name" j ~of_:Json.to_string_v;
    vd_weight = Json.get "weight" j ~of_:Json.to_int;
    vd_vcpus = Json.get "vcpus" j ~of_:Json.to_int;
    vd_workload =
      (match Json.member "workload" j with
      | None | Some Json.Null -> None
      | Some w -> Some (workload_of_json w));
  }

(* String-valued fields are parsed here, once: an unknown name (or a
   bad int64) is a malformed spec, not a case to run. *)
let parsed what of_string s =
  match of_string s with
  | Some v -> v
  | None -> raise (Json.Parse_error (Printf.sprintf "%s %S" what s))

let get_parsed what of_string key j =
  parsed what of_string (Json.get key j ~of_:Json.to_string_v)

(* int64 values exceed JSON's exact-integer range: stored as strings *)
let get_int64 key j = get_parsed ("bad " ^ key) Int64.of_string_opt key j

let to_json t =
  Json.Obj
    ([
      (* int64 seeds exceed JSON's exact-integer range: as a string *)
      ("seed", Json.String (Int64.to_string t.seed));
      ("sched", Json.String (Config.sched_name t.sched));
      ("scale", Json.Float t.scale);
      ("work_conserving", Json.Bool t.work_conserving);
      ("faults", Json.String t.faults.Fault.pname);
      ("queue", Json.String (Sim_engine.Engine.kind_name t.queue));
      ("sim_jobs", Json.Int t.sim_jobs);
      ("sockets", Json.Int t.sockets);
      ("cores_per_socket", Json.Int t.cores_per_socket);
      ("horizon_sec", Json.Float t.horizon_sec);
      ("check_fairness", Json.Bool t.check_fairness);
      ( "accounting",
        Json.String (Sim_vmm.Vmm.accounting_name t.accounting) );
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
              ("policy", Json.String (Placement.policy_name c.cl_policy));
              ("dist", Json.String (Vtrace.dist_name c.cl_dist));
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
    seed = get_int64 "seed" j;
    sched = get_parsed "unknown scheduler" Config.sched_of_name "sched" j;
    scale = Json.get "scale" j ~of_:Json.to_float;
    work_conserving = Json.get "work_conserving" j ~of_:Json.to_bool;
    faults = get_parsed "unknown fault profile" Fault.of_name "faults" j;
    queue =
      get_parsed "unknown queue backend" Sim_engine.Engine.kind_of_name
        "queue" j;
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
      | None -> Sim_vmm.Vmm.Precise
      | Some v ->
        parsed "unknown accounting discipline" Sim_vmm.Vmm.accounting_of_name
          (Json.to_string_v v));
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
        Some
          {
            cl_hosts = Json.get "hosts" c ~of_:Json.to_int;
            cl_trace_seed = get_int64 "trace_seed" c;
            cl_policy =
              get_parsed "unknown placement policy" Placement.policy_of_name
                "policy" c;
            cl_dist =
              get_parsed "unknown lifetime distribution" Vtrace.dist_of_name
                "dist" c;
            cl_vms = Json.get "vms" c ~of_:Json.to_int;
          });
    provenance =
      (match Json.member "found_seed" j with
      | None -> None
      | Some _ ->
        Some
          {
            pv_seed = get_int64 "found_seed" j;
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

(* ----- validation ----- *)

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.sockets <= 0 || t.cores_per_socket <= 0 then err "empty topology"
  else if t.horizon_sec <= 0. then err "non-positive horizon"
  else if t.scale <= 0. then err "non-positive scale"
  else if t.vms = [] && t.cluster = None then err "no VMs"
  else if t.sim_jobs < 1 then err "non-positive sim_jobs"
  else if
    List.exists
      (fun (v : Scenario.vm_desc) -> v.vd_weight <= 0 || v.vd_vcpus <= 0)
      t.vms
  then err "non-positive VM weight or vcpus"
  else
    match t.cluster with
    | Some c ->
      (* mirror Cluster.build / Vtrace.generate's preconditions so a
         cluster case (or a shrink candidate derived from one) fails
         validation instead of crashing the builder *)
      if t.sim_jobs > 1 then err "cluster excludes sim_jobs > 1"
      else if not (Fault.is_none t.faults) then
        err "cluster excludes fault injection"
      else if t.vms <> [] then
        err "cluster cases draw their VMs from the trace, not [vms]"
      else if c.cl_hosts < 1 then err "cluster needs at least one host"
      else if c.cl_vms < 1 then err "empty cluster trace"
      else Ok ()
    | None ->
      if t.sim_jobs < 2 then Ok ()
      (* mirror Decouple.build's preconditions so a decoupled case (or
         a shrink candidate derived from one) fails validation instead
         of crashing the builder *)
      else if not (Fault.is_none t.faults) then
        err "decouple excludes fault injection"
      else if t.sockets mod t.sim_jobs <> 0 then
        err "%d sockets cannot split into %d shards" t.sockets t.sim_jobs
      else if List.length t.vms < t.sim_jobs then
        err "decouple needs at least one VM per shard"
      else if
        List.for_all (fun (v : Scenario.vm_desc) -> v.vd_workload = None) t.vms
      then
        err "decouple needs a workload VM"
      else Ok ()
