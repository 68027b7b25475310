open Sim_engine

(* Id-counter strides keeping domain/vcpu ids globally unique across
   sub-hosts (shard k's VMM numbers domains from [k * domain_stride]).
   Far above any realistic per-shard population. *)
let domain_stride = 4096
let vcpu_stride = 65536

(* One workload VM, wherever it currently lives. Mutated only from
   events on the engine hosting it; ownership transfer rides the
   fabric's window barrier, which gives the happens-before edge. *)
type unit_state = {
  u_name : string;
  u_slot : int;  (** index into the shared done array *)
  u_kernel : Sim_guest.Kernel.t;
  u_domain : Sim_vmm.Domain.t;
  mutable u_round_times : int list;  (** newest first *)
  mutable u_migrations : int;
  mutable u_shard : int;
}

(* Per-shard state and counters: single-writer (the shard's own
   events), aggregated only after the run completes. *)
type shard = {
  s_index : int;
  s_scenario : Scenario.t;
  mutable s_resident : unit_state list;
  s_remote_load : int array;  (** last Load heard from each shard *)
  mutable s_stealing : bool;  (** an outstanding Steal_req *)
  mutable s_steal_req_at : int;
  mutable s_steal_reqs : int;
  mutable s_nacks : int;
  mutable s_steals_in : int;  (** grants received as thief *)
  mutable s_steal_latency : int;  (** cycles, summed over steals in *)
}

type t = {
  config : Config.t;
  shards : shard array;
  fabric : Fabric.t;
  units : unit_state array;
  vm_done : bool array;
  lookahead : int;
  balance_period : int;
}

let mix_seed seed k =
  Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int (k + 1))

(* A VM still contributes load while it has rounds left to its target
   (throughput workloads restart forever, so thread completion alone
   is not an idleness signal — the run's round target is). *)
let pending t u =
  (not t.vm_done.(u.u_slot))
  && not (Sim_guest.Kernel.all_finished u.u_kernel)

let shard_load t s =
  List.fold_left (fun n u -> if pending t u then n + 1 else n) 0 s.s_resident

(* Victim side of a steal, executing on the victim's engine at the
   request's delivery time. The candidate must be quiescent (kernel
   owns no pending event) and scheduler-approved; ties break on the
   lowest domain id so the choice is independent of resident-list
   order. Parking the monitor and detaching are victim-side queue and
   VMM mutations; the granted domain then exists only inside the
   mailbox closure until the thief attaches it one window later. *)
let handle_steal_req t ~thief ~victim =
  let v = t.shards.(victim) in
  let th = t.shards.(thief) in
  let now = Engine.now v.s_scenario.Scenario.engine in
  let vmm = v.s_scenario.Scenario.vmm in
  let candidate =
    if shard_load t v < 2 then None
    else
      List.fold_left
        (fun acc u ->
          if
            pending t u
            && Sim_guest.Kernel.quiescent u.u_kernel
            && Sim_vmm.Vmm.sched_migratable vmm u.u_domain
          then
            match acc with
            | Some (b : unit_state)
              when b.u_domain.Sim_vmm.Domain.id
                   <= u.u_domain.Sim_vmm.Domain.id ->
              acc
            | _ -> Some u
          else acc)
        None v.s_resident
  in
  (match Sys.getenv_opt "ASMAN_DECOUPLE_DEBUG" with
  | Some _ when candidate = None ->
    List.iter
      (fun u ->
        Printf.eprintf
          "nack@%d shard%d: %s pending=%b quiescent=%b migratable=%b\n%!" now
          victim u.u_name (pending t u)
          (Sim_guest.Kernel.quiescent u.u_kernel)
          (Sim_vmm.Vmm.sched_migratable vmm u.u_domain))
      v.s_resident
  | _ -> ());
  match candidate with
  | None ->
    Fabric.post t.fabric ~src:victim ~dst:thief ~time:(now + t.lookahead)
      (fun () ->
        th.s_stealing <- false;
        th.s_nacks <- th.s_nacks + 1)
  | Some u ->
    Sim_guest.Kernel.park u.u_kernel;
    Sim_vmm.Vmm.detach_domain vmm u.u_domain;
    v.s_resident <- List.filter (fun x -> x != u) v.s_resident;
    Fabric.post t.fabric ~src:victim ~dst:thief ~time:(now + t.lookahead)
      (fun () ->
        let dst_vmm = th.s_scenario.Scenario.vmm in
        Sim_guest.Kernel.retarget u.u_kernel ~vmm:dst_vmm;
        Sim_vmm.Vmm.attach_domain dst_vmm u.u_domain;
        u.u_shard <- thief;
        u.u_migrations <- u.u_migrations + 1;
        th.s_resident <- u :: th.s_resident;
        th.s_steals_in <- th.s_steals_in + 1;
        th.s_steal_latency <-
          th.s_steal_latency
          + (Engine.now th.s_scenario.Scenario.engine - th.s_steal_req_at);
        th.s_stealing <- false)

(* The balance tick: broadcast own load, and — when idle with no
   request in flight — ask the busiest remote shard (load >= 2, ties
   to the lowest index) for work. All inputs are shard-local state
   and previously delivered Load mail, so the decision is identical
   at any worker count. *)
let balance_tick t k =
  let s = t.shards.(k) in
  let now = Engine.now s.s_scenario.Scenario.engine in
  let load = shard_load t s in
  let n = Array.length t.shards in
  s.s_remote_load.(k) <- load;
  for j = 0 to n - 1 do
    if j <> k then
      Fabric.post t.fabric ~src:k ~dst:j ~time:(now + t.lookahead)
        (fun () -> t.shards.(j).s_remote_load.(k) <- load)
  done;
  if load = 0 && not s.s_stealing then begin
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if
        j <> k
        && s.s_remote_load.(j) >= 2
        && (!best = -1 || s.s_remote_load.(j) > s.s_remote_load.(!best))
      then best := j
    done;
    if !best >= 0 then begin
      let victim = !best in
      s.s_stealing <- true;
      s.s_steal_req_at <- now;
      s.s_steal_reqs <- s.s_steal_reqs + 1;
      Fabric.post t.fabric ~src:k ~dst:victim ~time:(now + t.lookahead)
        (fun () -> handle_steal_req t ~thief:k ~victim)
    end
  end

let build config ~sched ~vms =
  let nshards = config.Config.sim_jobs in
  if nshards < 2 then
    invalid_arg "Decouple.build: needs --sim-jobs >= 2";
  if not (Sim_faults.Fault.is_none config.Config.faults) then
    invalid_arg "Decouple.build: fault injection requires the coupled engine";
  let topo = config.Config.topology in
  let sockets = topo.Sim_hw.Topology.sockets in
  if sockets mod nshards <> 0 then
    invalid_arg
      (Printf.sprintf
         "Decouple.build: %d sockets cannot split into %d socket-aligned \
          shards (pick --topology SxC with S a multiple of --sim-jobs)"
         sockets nshards);
  if List.length vms < nshards then
    invalid_arg "Decouple.build: need at least one VM per shard";
  let sub_topo =
    Sim_hw.Topology.make ~sockets:(sockets / nshards)
      ~cores_per_socket:topo.Sim_hw.Topology.cores_per_socket
  in
  let lookahead = Sim_hw.Cpu_model.slot_cycles config.Config.cpu in
  let subs =
    Array.init nshards (fun k ->
        let sub_vms = List.filteri (fun i _ -> i mod nshards = k) vms in
        let sub_config =
          {
            config with
            Config.topology = sub_topo;
            seed = mix_seed config.Config.seed k;
            sim_jobs = 1;
            (* Sub-hosts run dark: tracing and the obs hub are
               process-shared surfaces the member engines would race
               on. *)
            obs =
              { config.Config.obs with Config.trace_mask = 0; hub = false };
          }
        in
        Scenario.build
          ~domain_id_base:(k * domain_stride)
          ~vcpu_id_base:(k * vcpu_stride) sub_config ~sched ~vms:sub_vms)
  in
  let units = ref [] in
  let n_units = ref 0 in
  List.iteri
    (fun i (spec : Scenario.vm_spec) ->
      let k = i mod nshards in
      let inst = List.nth subs.(k).Scenario.vms (i / nshards) in
      match inst.Scenario.kernel with
      | None -> ()
      | Some kernel ->
        units :=
          {
            u_name = spec.Scenario.vm_name;
            u_slot = !n_units;
            u_kernel = kernel;
            u_domain = inst.Scenario.domain;
            u_round_times = [];
            u_migrations = 0;
            u_shard = k;
          }
          :: !units;
        incr n_units)
    vms;
  let units = Array.of_list (List.rev !units) in
  if Array.length units = 0 then
    invalid_arg "Decouple.build: no workload VMs";
  let shards =
    Array.init nshards (fun k ->
        {
          s_index = k;
          s_scenario = subs.(k);
          s_resident = [];
          s_remote_load = Array.make nshards 0;
          s_stealing = false;
          s_steal_req_at = 0;
          s_steal_reqs = 0;
          s_nacks = 0;
          s_steals_in = 0;
          s_steal_latency = 0;
        })
  in
  Array.iter
    (fun u -> shards.(u.u_shard).s_resident <- u :: shards.(u.u_shard).s_resident)
    units;
  let fabric =
    Fabric.create ~lookahead
      (Array.map (fun s -> s.s_scenario.Scenario.engine) shards)
  in
  let t =
    {
      config;
      shards;
      fabric;
      units;
      vm_done = Array.make (Array.length units) false;
      lookahead;
      balance_period = 4 * lookahead;
    }
  in
  (* Identical chains armed at the same start on every member fire at
     identical times; load info posted at tick T arrives by T +
     lookahead < T + balance_period, so each tick sees fresh loads. *)
  Array.iter
    (fun s ->
      let (_stop : unit -> unit) =
        Engine.periodic s.s_scenario.Scenario.engine ~start:t.balance_period
          ~period:t.balance_period (fun () -> balance_tick t s.s_index)
      in
      ())
    t.shards;
  t

let shards t = Array.length t.shards
let scenario t i = t.shards.(i).s_scenario
let fabric t = t.fabric
let lookahead t = t.lookahead

type vm_report = {
  r_vm : string;
  r_rounds : int;
  r_marks : int;
  r_migrations : int;
  r_final_shard : int;
}

type report = {
  rp_shards : int;
  rp_workers : int;
  rp_wall_sec : float;
  rp_sim_sec : float;
  rp_events : int;
  rp_windows : int;
  rp_cross_posts : int;
  rp_max_window_mail : int;
  rp_steal_reqs : int;
  rp_grants : int;
  rp_nacks : int;
  rp_mean_steal_latency_cycles : float;
  rp_vms : vm_report list;
  rp_digest : int;
  rp_fingerprint : string;
}

(* Round completion, mirroring Runner.install_round_tracking: the
   hook reads the kernel's *current* engine for timestamps (correct
   across migrations) and flips the VM's done slot, which only the
   coordinator reads, between windows. *)
let install_round_tracking t ~target =
  Array.iter
    (fun u ->
      Sim_guest.Kernel.set_round_hook u.u_kernel
        (fun _thread ~round:_ ~duration:_ ->
          let completed = Sim_guest.Kernel.min_rounds u.u_kernel in
          let have = List.length u.u_round_times in
          if completed > have then begin
            let now = Sim_vmm.Vmm.now (Sim_guest.Kernel.vmm u.u_kernel) in
            for _ = have + 1 to completed do
              u.u_round_times <- now :: u.u_round_times
            done
          end;
          if completed >= target && not t.vm_done.(u.u_slot) then
            t.vm_done.(u.u_slot) <- true))
    t.units

let run ?workers t ~rounds ~max_sec =
  install_round_tracking t ~target:rounds;
  let freq = Config.freq t.config in
  let limit = Units.cycles_of_sec_f freq max_sec in
  let wall0 = Unix.gettimeofday () in
  Fabric.run ?workers ~until:limit
    ~stop:(fun () -> Array.for_all Fun.id t.vm_done)
    t.fabric;
  let wall = Unix.gettimeofday () -. wall0 in
  let n = Array.length t.shards in
  let sim_end =
    Array.fold_left
      (fun acc s -> max acc (Engine.now s.s_scenario.Scenario.engine))
      0 t.shards
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let grants = sum (fun s -> s.s_steals_in) in
  let latency = sum (fun s -> s.s_steal_latency) in
  {
    rp_shards = n;
    rp_workers =
      (match workers with
      | Some w -> max 1 (min w n)
      | None -> max 1 (min n (Stdlib.Domain.recommended_domain_count ())));
    rp_wall_sec = wall;
    rp_sim_sec = Units.sec_of_cycles freq sim_end;
    rp_events = Fabric.events_fired t.fabric;
    rp_windows = Fabric.windows t.fabric;
    rp_cross_posts = Fabric.cross_posts t.fabric;
    rp_max_window_mail = Fabric.max_window_mail t.fabric;
    rp_steal_reqs = sum (fun s -> s.s_steal_reqs);
    rp_grants = grants;
    rp_nacks = sum (fun s -> s.s_nacks);
    rp_mean_steal_latency_cycles =
      (if grants = 0 then 0. else float_of_int latency /. float_of_int grants);
    rp_vms =
      Array.to_list
        (Array.map
           (fun u ->
             {
               r_vm = u.u_name;
               r_rounds = List.length u.u_round_times;
               r_marks = Sim_guest.Kernel.total_marks u.u_kernel;
               r_migrations = u.u_migrations;
               r_final_shard = u.u_shard;
             })
           t.units);
    rp_digest = Fabric.digest t.fabric;
    rp_fingerprint = Fabric.fingerprint t.fabric;
  }

let report_metrics r =
  [
    ("shards", float_of_int r.rp_shards);
    ("workers", float_of_int r.rp_workers);
    ("wall_sec", r.rp_wall_sec);
    ("sim_sec", r.rp_sim_sec);
    ("events", float_of_int r.rp_events);
    ("windows", float_of_int r.rp_windows);
    ("cross_posts", float_of_int r.rp_cross_posts);
    ("max_window_mail", float_of_int r.rp_max_window_mail);
    ("steal_reqs", float_of_int r.rp_steal_reqs);
    ("grants", float_of_int r.rp_grants);
    ("nacks", float_of_int r.rp_nacks);
    ("mean_steal_latency_cycles", r.rp_mean_steal_latency_cycles);
    ("digest", float_of_int (r.rp_digest land 0xffffffff));
  ]
  @ List.concat_map
      (fun v ->
        [
          (Printf.sprintf "vm.%s.rounds" v.r_vm, float_of_int v.r_rounds);
          (Printf.sprintf "vm.%s.migrations" v.r_vm,
           float_of_int v.r_migrations);
        ])
      r.rp_vms

let report_kv r =
  [
    ("shards", string_of_int r.rp_shards);
    ("workers", string_of_int r.rp_workers);
    ("wall_sec", Printf.sprintf "%.3f" r.rp_wall_sec);
    ("sim_sec", Printf.sprintf "%.3f" r.rp_sim_sec);
    ("events", string_of_int r.rp_events);
    ("windows", string_of_int r.rp_windows);
    ("cross_posts", string_of_int r.rp_cross_posts);
    ("max_window_mail", string_of_int r.rp_max_window_mail);
    ("steal_reqs", string_of_int r.rp_steal_reqs);
    ("grants", string_of_int r.rp_grants);
    ("nacks", string_of_int r.rp_nacks);
    ("mean_steal_latency_cycles",
     Printf.sprintf "%.0f" r.rp_mean_steal_latency_cycles);
    ("digest", Printf.sprintf "%08x" (r.rp_digest land 0xffffffff));
  ]
  @ List.concat_map
      (fun v ->
        [
          (Printf.sprintf "vm.%s.rounds" v.r_vm, string_of_int v.r_rounds);
          (Printf.sprintf "vm.%s.migrations" v.r_vm,
           string_of_int v.r_migrations);
          (Printf.sprintf "vm.%s.final_shard" v.r_vm,
           string_of_int v.r_final_shard);
        ])
      r.rp_vms
