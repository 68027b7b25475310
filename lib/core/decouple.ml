open Sim_engine

(* Per-shard balancer state and counters: single-writer (the shard's
   own events), aggregated only after the run completes. *)
type shard = {
  s_remote_load : int array;  (** last Load heard from each shard *)
  mutable s_stealing : bool;  (** an outstanding Steal_req *)
  mutable s_steal_req_at : int;
  mutable s_steal_reqs : int;
  mutable s_nacks : int;
  mutable s_steal_latency : int;  (** cycles, summed over steals in *)
}

type t = {
  config : Config.t;
  hosts : Hosts.t;
  shards : shard array;
  vms : Hosts.vm list;  (** the workload VMs, in Hosts id order *)
  migrations : int array;
      (** steals of each VM, by Hosts id: written only on the member
          the VM arrives at; the fabric's window barrier orders the
          writes of different members *)
  mutable target : int;  (** the run's round target *)
}

(* A VM still contributes load while it has rounds left to its target
   (throughput workloads restart forever, so thread completion alone
   is not an idleness signal — the run's round target is). *)
let pending t (vm : Hosts.vm) =
  Sim_guest.Kernel.min_rounds vm.Hosts.kernel < t.target
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
        t.migrations.(vm.Hosts.id) <- t.migrations.(vm.Hosts.id) + 1;
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
     VM's Hosts id its index in [vms] and [migrations]. *)
  let adopted =
    List.mapi
      (fun i _ ->
        let k = i mod nshards in
        (k, List.nth (Hosts.scenario hosts k).Scenario.vms (i / nshards)))
      vms
    |> List.filter (fun (_, inst) -> inst.Scenario.kernel <> None)
    |> List.map (fun (k, inst) -> Hosts.adopt hosts ~member:k inst)
  in
  if adopted = [] then
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
              s_steal_latency = 0;
            });
      vms = adopted;
      migrations = Array.make (List.length adopted) 0;
      target = max_int;
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
  rp_vms : (Runner.vm_metrics * int * int) list;
  rp_digest : int;
  rp_fingerprint : string;
}

let run ?workers t ~rounds ~max_sec =
  t.target <- rounds;
  let all_done = Atomic.make false in
  let clocks =
    Runner.track_rounds ~target:rounds
      ~on_all_done:(fun () -> Atomic.set all_done true)
      (List.map (fun (vm : Hosts.vm) -> vm.Hosts.kernel) t.vms)
  in
  let freq = Config.freq t.config in
  let r =
    Hosts.run ?workers
      ~until:(Units.cycles_of_sec_f freq max_sec)
      ~stop:(fun () -> Atomic.get all_done)
      t.hosts
  in
  (* The measurement began at the build, at cycle 0, where every
     counter was zero: each member's end snapshot is its window. *)
  let snaps =
    List.init (shards t) (fun k ->
        Sim_obs.Metrics.snapshot
          (Sim_vmm.Vmm.metrics (scenario t k).Scenario.vmm))
  in
  let outcome (vm : Hosts.vm) clock =
    let migrations = t.migrations.(vm.Hosts.id) in
    ( Runner.vm_outcome ~freq ~absolute:snaps ~window:snaps ~started:0
        ~rounds:clock
        ~vmm:(Sim_guest.Kernel.vmm vm.Hosts.kernel)
        ~moved:(migrations > 0) vm.Hosts.domain,
      migrations,
      vm.Hosts.member )
  in
  let fabric = Hosts.fabric t.hosts in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let grants = Array.fold_left ( + ) 0 t.migrations in
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
    rp_vms = List.map2 outcome t.vms clocks;
    rp_digest = Fabric.digest fabric;
    rp_fingerprint = Fabric.fingerprint fabric;
  }

(* Every run-wide report key with its registry value and its printed
   form. *)
let report_rows r =
  let int k v = (k, float_of_int v, string_of_int v) in
  let flt fmt k v = (k, v, Printf.sprintf fmt v) in
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
    ("digest", float_of_int digest, Printf.sprintf "%08x" digest);
  ]

let report_metrics r =
  List.map (fun (k, v, _) -> (k, v)) (report_rows r)
  @ List.concat_map
      (fun ((v : Runner.vm_metrics), migrations, _) ->
        let key = Printf.sprintf "vm.%s.migrations" v.Runner.vm_name in
        Runner.vm_kv v @ [ (key, float_of_int migrations) ])
      r.rp_vms

let render ~sched t r =
  let shown =
    let rows = List.map (fun (k, _, s) -> (k, s)) (report_rows r) in
    fun k -> List.assoc k rows
  in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf fmt in
  line "scheduler: %s   decoupled: %s shards x %s workers   simulated: %s s   \
        events: %s\n\n"
    (Config.sched_name sched) (shown "shards") (shown "workers")
    (shown "sim_sec") (shown "events");
  Buffer.add_string buf
    (Report.vm_table
       ~extra:[ "migrations"; "final shard" ]
       (List.map
          (fun (v, migrations, shard) ->
            (v, [ string_of_int migrations; string_of_int shard ]))
          r.rp_vms));
  Buffer.add_char buf '\n';
  line
    "fabric: %s windows, %s cross-shard posts (max %s per window), lookahead \
     %d cycles\n"
    (shown "windows") (shown "cross_posts") (shown "max_window_mail")
    (Hosts.lookahead t.hosts);
  line "steals: %s requests, %s grants, %s nacks, mean latency %s cycles\n"
    (shown "steal_reqs") (shown "grants") (shown "nacks")
    (shown "mean_steal_latency_cycles");
  line "decoupled digest: %s\n" (shown "digest");
  Buffer.contents buf
