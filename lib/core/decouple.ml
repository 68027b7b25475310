open Sim_engine

(* A workload VM, wherever it currently lives. Mutated only from
   events on the member hosting it; ownership transfer rides the
   fabric's window barrier, which gives the happens-before edge. *)
type unit_state = {
  u_vm : Hosts.vm;  (** [id] indexes [units] and the done array *)
  mutable u_round_times : int list;  (** newest first *)
  mutable u_migrations : int;
}

(* Per-shard balancer state and counters: single-writer (the shard's
   own events), aggregated only after the run completes. *)
type shard = {
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
  hosts : Hosts.t;
  shards : shard array;
  units : unit_state array;
  vm_done : bool array;
}

(* A VM still contributes load while it has rounds left to its target
   (throughput workloads restart forever, so thread completion alone
   is not an idleness signal — the run's round target is). *)
let pending t (vm : Hosts.vm) =
  (not t.vm_done.(vm.Hosts.id))
  && not (Sim_guest.Kernel.all_finished vm.Hosts.kernel)

let shard_load t k =
  List.fold_left
    (fun n vm -> if pending t vm then n + 1 else n)
    0 (Hosts.residents t.hosts k)

(* Victim side of a steal, executing on the victim's engine at the
   request's delivery time. The candidate must already be quiescent
   (kernel owns no pending event) and scheduler-approved, so the
   substrate's freeze poll succeeds at once and the Grant ships with no
   extra latency; ties break on the lowest domain id so the choice is
   independent of resident-list order. *)
let handle_steal_req t ~thief ~victim =
  let th = t.shards.(thief) in
  let vmm = (Hosts.scenario t.hosts victim).Scenario.vmm in
  let eligible (vm : Hosts.vm) =
    pending t vm
    && Sim_guest.Kernel.quiescent vm.Hosts.kernel
    && Sim_vmm.Vmm.sched_migratable vmm vm.Hosts.domain
  in
  let dom_id (vm : Hosts.vm) = vm.Hosts.domain.Sim_vmm.Domain.id in
  let candidates =
    if shard_load t victim < 2 then []
    else
      List.filter eligible (Hosts.residents t.hosts victim)
      |> List.sort (fun a b -> compare (dom_id a) (dom_id b))
  in
  let nack () =
    Hosts.send t.hosts ~src:victim ~dst:thief (fun () ->
        th.s_stealing <- false;
        th.s_nacks <- th.s_nacks + 1)
  in
  match candidates with
  | [] -> nack ()
  | vm :: _ ->
    Hosts.migrate t.hosts vm ~dst:thief ~nacked:nack
      ~arrived:(fun () ->
        let u = t.units.(vm.Hosts.id) in
        u.u_migrations <- u.u_migrations + 1;
        th.s_steals_in <- th.s_steals_in + 1;
        th.s_steal_latency <-
          th.s_steal_latency + (Hosts.now t.hosts thief - th.s_steal_req_at);
        th.s_stealing <- false)

(* The balance tick: broadcast own load, and — when idle with no
   request in flight — ask the busiest remote shard (load >= 2, ties
   to the lowest index) for work. All inputs are shard-local state
   and previously delivered Load mail, so the decision is identical
   at any worker count. *)
let balance_tick t k =
  let s = t.shards.(k) in
  let load = shard_load t k in
  let n = Array.length t.shards in
  s.s_remote_load.(k) <- load;
  for j = 0 to n - 1 do
    if j <> k then
      Hosts.send t.hosts ~src:k ~dst:j (fun () ->
          t.shards.(j).s_remote_load.(k) <- load)
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
      s.s_steal_req_at <- Hosts.now t.hosts k;
      s.s_steal_reqs <- s.s_steal_reqs + 1;
      Hosts.send t.hosts ~src:k ~dst:victim (fun () ->
          handle_steal_req t ~thief:k ~victim)
    end
  end

let build config ~sched ~vms =
  let nshards = config.Config.sim_jobs in
  if nshards < 2 then
    invalid_arg "Decouple.build: needs --sim-jobs >= 2";
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
  let topology =
    Sim_hw.Topology.make ~sockets:(sockets / nshards)
      ~cores_per_socket:topo.Sim_hw.Topology.cores_per_socket
  in
  let hosts =
    Hosts.create config ~sched
      (Array.init nshards (fun k ->
           {
             Hosts.topology;
             vms = List.filteri (fun i _ -> i mod nshards = k) vms;
             launch = true;
           }))
  in
  (* VM i starts on shard i mod N; adopting in list order makes a
     unit's Hosts id its index in [units]. *)
  let units =
    List.mapi
      (fun i _ ->
        let k = i mod nshards in
        (k, List.nth (Hosts.scenario hosts k).Scenario.vms (i / nshards)))
      vms
    |> List.filter (fun (_, inst) -> inst.Scenario.kernel <> None)
    |> List.map (fun (k, inst) ->
           let u_vm = Hosts.adopt hosts ~member:k inst in
           { u_vm; u_round_times = []; u_migrations = 0 })
    |> Array.of_list
  in
  if Array.length units = 0 then
    invalid_arg "Decouple.build: no workload VMs";
  let t =
    {
      config;
      hosts;
      shards =
        Array.init nshards (fun _ ->
            {
              s_remote_load = Array.make nshards 0;
              s_stealing = false;
              s_steal_req_at = 0;
              s_steal_reqs = 0;
              s_nacks = 0;
              s_steals_in = 0;
              s_steal_latency = 0;
            });
      units;
      vm_done = Array.make (Array.length units) false;
    }
  in
  (* Identical chains armed at the same start on every member fire at
     identical times; load info posted at tick T arrives by T +
     lookahead < T + period, so each tick sees fresh loads. *)
  let period = 4 * Hosts.lookahead hosts in
  for k = 0 to nshards - 1 do
    let (_stop : unit -> unit) =
      Engine.periodic (Hosts.engine hosts k) ~start:period ~period (fun () ->
          balance_tick t k)
    in
    ()
  done;
  t

let shards t = Array.length t.shards
let scenario t i = Hosts.scenario t.hosts i
let fabric t = Hosts.fabric t.hosts
let lookahead t = Hosts.lookahead t.hosts

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
      let kernel = u.u_vm.Hosts.kernel in
      Sim_guest.Kernel.set_round_hook kernel
        (fun _thread ~round:_ ~duration:_ ->
          let completed = Sim_guest.Kernel.min_rounds kernel in
          let have = List.length u.u_round_times in
          if completed > have then begin
            let now = Sim_vmm.Vmm.now (Sim_guest.Kernel.vmm kernel) in
            for _ = have + 1 to completed do
              u.u_round_times <- now :: u.u_round_times
            done
          end;
          if completed >= target && not t.vm_done.(u.u_vm.Hosts.id) then
            t.vm_done.(u.u_vm.Hosts.id) <- true))
    t.units

let run ?workers t ~rounds ~max_sec =
  install_round_tracking t ~target:rounds;
  let freq = Config.freq t.config in
  let r =
    Hosts.run ?workers
      ~until:(Units.cycles_of_sec_f freq max_sec)
      ~stop:(fun () -> Array.for_all Fun.id t.vm_done)
      t.hosts
  in
  let fabric = fabric t in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let grants = sum (fun s -> s.s_steals_in) in
  let latency = sum (fun s -> s.s_steal_latency) in
  {
    rp_shards = Array.length t.shards;
    rp_workers = r.Hosts.workers;
    rp_wall_sec = r.Hosts.wall_sec;
    rp_sim_sec = Units.sec_of_cycles freq r.Hosts.sim_end;
    rp_events = Fabric.events_fired fabric;
    rp_windows = Fabric.windows fabric;
    rp_cross_posts = Fabric.cross_posts fabric;
    rp_max_window_mail = Fabric.max_window_mail fabric;
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
               r_vm = u.u_vm.Hosts.name;
               r_rounds = List.length u.u_round_times;
               r_marks = Sim_guest.Kernel.total_marks u.u_vm.Hosts.kernel;
               r_migrations = u.u_migrations;
               r_final_shard = u.u_vm.Hosts.member;
             })
           t.units);
    rp_digest = Fabric.digest fabric;
    rp_fingerprint = Fabric.fingerprint fabric;
  }

(* Every report key with its registry value and its printed form (a
   VM's final shard is printed only). *)
let report_rows r =
  let int k v = (k, Some (float_of_int v), string_of_int v) in
  let flt fmt k v = (k, Some v, Printf.sprintf fmt v) in
  let digest = r.rp_digest land 0xffffffff in
  [
    int "shards" r.rp_shards;
    int "workers" r.rp_workers;
    flt "%.3f" "wall_sec" r.rp_wall_sec;
    flt "%.3f" "sim_sec" r.rp_sim_sec;
    int "events" r.rp_events;
    int "windows" r.rp_windows;
    int "cross_posts" r.rp_cross_posts;
    int "max_window_mail" r.rp_max_window_mail;
    int "steal_reqs" r.rp_steal_reqs;
    int "grants" r.rp_grants;
    int "nacks" r.rp_nacks;
    flt "%.0f" "mean_steal_latency_cycles" r.rp_mean_steal_latency_cycles;
    ("digest", Some (float_of_int digest), Printf.sprintf "%08x" digest);
  ]
  @ List.concat_map
      (fun v ->
        let key s = Printf.sprintf "vm.%s.%s" v.r_vm s in
        [
          int (key "rounds") v.r_rounds;
          int (key "migrations") v.r_migrations;
          (key "final_shard", None, string_of_int v.r_final_shard);
        ])
      r.rp_vms

let report_metrics r =
  List.filter_map
    (fun (k, v, _) -> Option.map (fun v -> (k, v)) v)
    (report_rows r)

let render ~sched t r =
  let shown =
    let rows = List.map (fun (k, _, s) -> (k, s)) (report_rows r) in
    fun k -> List.assoc k rows
  in
  let vm v k = shown (Printf.sprintf "vm.%s.%s" v.r_vm k) in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf fmt in
  line "scheduler: %s   decoupled: %s shards x %s workers   simulated: %s s   \
        events: %s\n\n"
    (Config.sched_name sched) (shown "shards") (shown "workers")
    (shown "sim_sec") (shown "events");
  Buffer.add_string buf
    (Sim_stats.Table.render
       ~headers:[ "VM"; "rounds"; "migrations"; "final shard" ]
       (List.map
          (fun v ->
            [ v.r_vm; vm v "rounds"; vm v "migrations"; vm v "final_shard" ])
          r.rp_vms));
  Buffer.add_char buf '\n';
  line
    "fabric: %s windows, %s cross-shard posts (max %s per window), lookahead \
     %d cycles\n"
    (shown "windows") (shown "cross_posts") (shown "max_window_mail")
    (lookahead t);
  line "steals: %s requests, %s grants, %s nacks, mean latency %s cycles\n"
    (shown "steal_reqs") (shown "grants") (shown "nacks")
    (shown "mean_steal_latency_cycles");
  line "decoupled digest: %s\n" (shown "digest");
  Buffer.contents buf
