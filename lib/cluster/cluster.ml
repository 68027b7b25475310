open Sim_engine
module Hosts = Asman.Hosts

(* Where a VM currently is, from the controller's point of view.
   Written only by controller (incubator-member) events; host events
   learn about ownership through fabric mail. *)
type phase =
  | Incubating  (** trace entry not yet arrived *)
  | Pending  (** arrived, waiting in the admission queue *)
  | Placing of int  (** placement decided, initial copy in flight *)
  | Resident of int
  | Evicting of int  (** chosen for migration, awaiting source grant *)
  | Migrating of int * int  (** parked, stop-and-copy in flight *)
  | Departing of int  (** lifetime expired, draining on its host *)
  | Departed

let phase_name = function
  | Incubating -> "incubating"
  | Pending -> "pending"
  | Placing h -> Printf.sprintf "placing:%d" h
  | Resident h -> Printf.sprintf "resident:%d" h
  | Evicting h -> Printf.sprintf "evicting:%d" h
  | Migrating (a, b) -> Printf.sprintf "migrating:%d:%d" a b
  | Departing h -> Printf.sprintf "departing:%d" h
  | Departed -> "departed"

type unit_state = {
  cu_entry : Vtrace.entry;
  cu_vm : Hosts.vm;  (** [id] is the trace index *)
  cu_resident : Placement.resident;
      (** the controller's bookkeeping record; lives in exactly one
          host view while the VM is admitted *)
  cu_life_cycles : int;
  mutable cu_phase : phase;  (** controller-side only *)
  mutable cu_run_at : int;  (** controller ack of first launch; -1 *)
  mutable cu_departed_at : int;  (** -1 until departed *)
  mutable cu_migrations : int;  (** written by source-host grant events *)
  mutable cu_downtime : int;  (** cycles frozen in stop-and-copy *)
  mutable cu_repredictions : int;  (** controller-side *)
}

(* Members 0..n-1 are the hosts; member n is the incubator, whose
   engine runs the controller. *)
type t = {
  policy : Placement.policy;
  hosts : Hosts.t;
  nhosts : int;
  units : unit_state array;
  by_name : (string, unit_state) Hashtbl.t;
  views : Placement.host_view array;  (** controller bookkeeping *)
  freq : Units.freq;
  copy_cycles_per_mb : int;
  penalty_sec : float;
  rebalance : bool;
  mutable queue : unit_state list;  (** admission queue, arrival order *)
  mutable log_rev : (int * string) list;
  mutable placements : int;
  mutable deferrals : int;
  mutable evictions : int;
  mutable migrations : int;
  mutable nacks : int;
  mutable departures : int;
  mutable double_places : int;
  (* time-integrated admitted-VM count, for consolidation density *)
  mutable admitted : int;
  mutable last_change : int;
  mutable resident_integral : float;
}

(* A pressure move is taken only while the host imbalance is at least
   this many VCPU slots, and at least twice the VM's VCPUs. *)
let rebalance_margin = 4

let controller t = t.nhosts

let inc_engine t = Hosts.engine t.hosts (controller t)
let inc_now t = Engine.now (inc_engine t)
let sec_of t cycles = Units.sec_of_cycles t.freq cycles
let now_sec t = sec_of t (inc_now t)
let name u = u.cu_entry.Vtrace.e_name

let logf t fmt =
  Printf.ksprintf (fun s -> t.log_rev <- (inc_now t, s) :: t.log_rev) fmt

let note_admitted_change t delta =
  let now = inc_now t in
  t.resident_integral <-
    t.resident_integral +. (float_of_int t.admitted *. float_of_int (now - t.last_change));
  t.admitted <- t.admitted + delta;
  t.last_change <- now

(* ----- controller-side bookkeeping transitions ----- *)

let rec ctrl_attached t u h ~first =
  if first then begin
    u.cu_phase <- Resident h;
    u.cu_run_at <- inc_now t;
    logf t "run %s host %d" (name u) h;
    (* The lifetime clock starts at the launch ack; the controller
       owns the departure timer so it survives later migrations. *)
    let (_ : Engine.handle) =
      Engine.schedule_after (inc_engine t) ~delay:u.cu_life_cycles (fun () ->
          ctrl_depart t u)
    in
    ()
  end
  else begin
    (* stop-and-copy landed: turn the destination reservation into
       residency (same slot count, so occupancy is unchanged) *)
    Placement.release t.views.(h) ~vcpus:u.cu_entry.Vtrace.e_vcpus;
    Placement.admit t.views.(h) u.cu_resident;
    u.cu_phase <- Resident h;
    t.migrations <- t.migrations + 1;
    logf t "migrated %s host %d" (name u) h
  end

and ctrl_depart t u =
  match u.cu_phase with
  | Resident h ->
    u.cu_phase <- Departing h;
    logf t "halt %s host %d" (name u) h;
    (* the host drains the guest, detaches it and reports back *)
    Hosts.send t.hosts ~src:(controller t) ~dst:h (fun () ->
        Hosts.depart t.hosts u.cu_vm ~gone:(fun () ->
            Hosts.send t.hosts ~src:h ~dst:(controller t) (fun () ->
                ctrl_departed t u h)))
  | Evicting _ | Migrating _ | Placing _ ->
    (* mid-migration; try again once the move settles *)
    let (_ : Engine.handle) =
      Engine.schedule_after (inc_engine t)
        ~delay:(2 * Hosts.lookahead t.hosts)
        (fun () -> ctrl_depart t u)
    in
    ()
  | Incubating | Pending | Departing _ | Departed -> ()

and ctrl_departed t u h =
  Placement.remove t.views.(h) u.cu_resident;
  u.cu_phase <- Departed;
  u.cu_departed_at <- inc_now t;
  t.departures <- t.departures + 1;
  note_admitted_change t (-1);
  logf t "depart %s host %d" (name u) h;
  try_place_queue t

(* Move [u] to host [dst] on the substrate (from the incubator for a
   placement, from its host for a pressure migration); the
   destination acks the attach to the controller. *)
and ship ?extra ?shipped t u ~dst ~first ~nacked =
  Hosts.migrate ?extra ?shipped t.hosts u.cu_vm ~dst ~nacked
    ~arrived:(fun () ->
      Hosts.send t.hosts ~src:dst ~dst:(controller t) (fun () ->
          ctrl_attached t u dst ~first))

(* Source side of a pressure migration, executing on the source
   host's engine: live migration of a running guest, whose
   stop-and-copy rides as footprint-proportional extra latency. *)
and host_release t u ~src ~dst =
  let nack () =
    Hosts.send t.hosts ~src ~dst:(controller t) (fun () ->
        ctrl_migration_nack t u ~src ~dst)
  in
  if
    List.memq u.cu_vm (Hosts.residents t.hosts src)
    && not (Sim_guest.Kernel.halt_requested u.cu_vm.Hosts.kernel)
  then
    let copy = u.cu_entry.Vtrace.e_footprint_mb * t.copy_cycles_per_mb in
    ship ~extra:copy t u ~dst ~first:false ~nacked:nack
      ~shipped:(fun ~downtime ->
        u.cu_migrations <- u.cu_migrations + 1;
        u.cu_downtime <- u.cu_downtime + downtime;
        Hosts.send t.hosts ~src ~dst:(controller t) (fun () ->
            ctrl_migration_started t u ~src ~dst))
  else nack ()

and ctrl_migration_started t u ~src ~dst =
  Placement.remove t.views.(src) u.cu_resident;
  u.cu_phase <- Migrating (src, dst);
  logf t "copy %s %d->%d" (name u) src dst;
  try_place_queue t

and ctrl_migration_nack t u ~src ~dst =
  (match u.cu_phase with
  | Evicting _ -> u.cu_phase <- Resident src
  | _ -> ());
  Placement.release t.views.(dst) ~vcpus:u.cu_entry.Vtrace.e_vcpus;
  t.nacks <- t.nacks + 1;
  logf t "nack %s %d->%d" (name u) src dst

(* ----- placement ----- *)

and try_place t u =
  let now = inc_now t in
  let now_s = sec_of t now in
  let predicted_end = now_s +. u.cu_entry.Vtrace.e_predicted_sec in
  let vcpus = u.cu_entry.Vtrace.e_vcpus in
  match
    Placement.choose t.policy t.views ~vcpus ~now_sec:now_s
      ~predicted_end_sec:predicted_end ~penalty_sec:t.penalty_sec
  with
  | None -> false
  | Some h ->
    u.cu_resident.Placement.r_predicted_end_sec <- predicted_end;
    Placement.admit t.views.(h) u.cu_resident;
    t.placements <- t.placements + 1;
    note_admitted_change t 1;
    u.cu_phase <- Placing h;
    logf t "place %s host %d" (name u) h;
    (if Sim_vmm.Mutation.enabled Sim_vmm.Mutation.Double_place then
       (* planted bug: admit the VM to a second feasible host's
          bookkeeping as well — the phantom residency corrupts the
          controller's capacity accounting and is what the SimCheck
          cluster-conservation oracle must catch *)
       let phantom = ref None in
       Array.iter
         (fun (v : Placement.host_view) ->
           if
             !phantom = None && v.Placement.h_id <> h
             && Placement.feasible v ~vcpus
           then phantom := Some v)
         t.views;
       match !phantom with
       | None -> ()
       | Some v ->
         Placement.admit v
           {
             Placement.r_name = name u;
             r_vcpus = vcpus;
             r_predicted_end_sec = predicted_end;
           };
         t.double_places <- t.double_places + 1;
         logf t "place %s host %d (double)" (name u) v.Placement.h_id);
    (* the VM incubates unlaunched, hence quiescent: the move leaves
       the incubator at once and the host launches it on arrival *)
    ship t u ~dst:h ~first:true ~nacked:ignore;
    true

and try_place_queue t =
  t.queue <- List.filter (fun u -> not (try_place t u)) t.queue

let arrive t u =
  u.cu_phase <- Pending;
  t.queue <- t.queue @ [ u ];
  try_place_queue t;
  if List.memq u t.queue then begin
    t.deferrals <- t.deferrals + 1;
    logf t "defer %s" (name u)
  end

(* ----- pressure rebalance + lifetime repredict tick ----- *)

let repredict t =
  let now_s = now_sec t in
  Array.iter
    (fun u ->
      match u.cu_phase with
      | Resident _
        when u.cu_resident.Placement.r_predicted_end_sec <= now_s ->
        (* LAVA-style adaptation: the prediction expired but the VM is
           still running — extend by one predicted lifetime from now *)
        u.cu_resident.Placement.r_predicted_end_sec <-
          now_s +. u.cu_entry.Vtrace.e_predicted_sec;
        u.cu_repredictions <- u.cu_repredictions + 1
      | _ -> ())
    t.units

let migration_in_flight t =
  Array.exists
    (fun u ->
      match u.cu_phase with
      | Evicting _ | Migrating _ -> true
      | _ -> false)
    t.units

let rebalance_tick t =
  repredict t;
  if t.rebalance && not (migration_in_flight t) then begin
    let n = Array.length t.views in
    let src = ref 0 and dst = ref 0 in
    for i = 1 to n - 1 do
      if t.views.(i).Placement.h_used > t.views.(!src).Placement.h_used then
        src := i;
      if t.views.(i).Placement.h_used < t.views.(!dst).Placement.h_used then
        dst := i
    done;
    if !src <> !dst then begin
      let sv = t.views.(!src) and dv = t.views.(!dst) in
      (* best candidate: the largest Resident VM on the source whose
         move both fits the destination and strictly narrows the
         imbalance; ties break on the name for determinism *)
      let cand = ref None in
      List.iter
        (fun (r : Placement.resident) ->
          match Hashtbl.find_opt t.by_name r.Placement.r_name with
          | Some u when u.cu_phase = Resident !src ->
            let v = r.Placement.r_vcpus in
            if
              dv.Placement.h_used + v <= dv.Placement.h_capacity
              && sv.Placement.h_used - dv.Placement.h_used
                 >= max rebalance_margin (2 * v)
            then begin
              match !cand with
              | Some (b : unit_state)
                when b.cu_entry.Vtrace.e_vcpus > v
                     || (b.cu_entry.Vtrace.e_vcpus = v && name b <= name u) ->
                ()
              | _ -> cand := Some u
            end
          | _ -> ())
        sv.Placement.h_residents;
      match !cand with
      | None -> ()
      | Some u ->
        let s = !src and d = !dst in
        Placement.reserve dv ~vcpus:u.cu_entry.Vtrace.e_vcpus;
        u.cu_phase <- Evicting s;
        t.evictions <- t.evictions + 1;
        logf t "evict %s %d->%d" (name u) s d;
        Hosts.send t.hosts ~src:(controller t) ~dst:s (fun () ->
            host_release t u ~src:s ~dst:d)
    end
  end

(* ----- build ----- *)

let build ?(overcommit = 2.0) ?(penalty_sec = 0.75) ?(rebalance = true)
    config ~sched ~policy ~hosts:nhosts ~trace =
  if nhosts < 1 then invalid_arg "Cluster.build: hosts < 1";
  if trace = [] then invalid_arg "Cluster.build: empty trace";
  let pcpus = Asman.Config.pcpus config in
  List.iter
    (fun (e : Vtrace.entry) ->
      if e.Vtrace.e_vcpus > pcpus then
        invalid_arg
          (Printf.sprintf "Cluster.build: %s has %d VCPUs but hosts have %d \
                           PCPUs" e.Vtrace.e_name e.Vtrace.e_vcpus pcpus))
    trace;
  let freq = Asman.Config.freq config in
  let host =
    {
      Hosts.topology = config.Asman.Config.topology;
      (* an idle sentinel keeps the host scenario well-formed; it has
         no kernel and never wakes *)
      vms =
        [
          { Asman.Scenario.vm_name = "idle"; weight = 256; vcpus = 1; workload = None };
        ];
      launch = true;
    }
  in
  (* the incubator holds every trace VM unlaunched (hence quiescent)
     until it is placed *)
  let incubator =
    {
      Hosts.topology = Sim_hw.Topology.make ~sockets:1 ~cores_per_socket:1;
      vms =
        List.map
          (fun (e : Vtrace.entry) ->
            {
              Asman.Scenario.vm_name = e.Vtrace.e_name;
              weight = e.Vtrace.e_weight;
              vcpus = e.Vtrace.e_vcpus;
              workload =
                Some (Asman.Scenario.workload_of_desc config e.Vtrace.e_workload);
            })
          trace;
      launch = false;
    }
  in
  let hosts =
    Hosts.create config ~sched
      (Array.init (nhosts + 1) (fun k -> if k < nhosts then host else incubator))
  in
  let inc = Hosts.scenario hosts nhosts in
  let units =
    Array.of_list
      (List.map
         (fun (e : Vtrace.entry) ->
           {
             cu_entry = e;
             cu_vm =
               Hosts.adopt hosts ~member:nhosts
                 (Asman.Scenario.find_vm inc e.Vtrace.e_name);
             cu_resident =
               {
                 Placement.r_name = e.Vtrace.e_name;
                 r_vcpus = e.Vtrace.e_vcpus;
                 r_predicted_end_sec = 0.0;
               };
             cu_life_cycles = Units.cycles_of_sec_f freq e.Vtrace.e_life_sec;
             cu_phase = Incubating;
             cu_run_at = -1;
             cu_departed_at = -1;
             cu_migrations = 0;
             cu_downtime = 0;
             cu_repredictions = 0;
           })
         trace)
  in
  let by_name = Hashtbl.create 64 in
  Array.iter (fun u -> Hashtbl.replace by_name (name u) u) units;
  let capacity = int_of_float (overcommit *. float_of_int pcpus) in
  let t =
    {
      policy;
      hosts;
      nhosts;
      units;
      by_name;
      views = Array.init nhosts (fun k -> Placement.make_view ~id:k ~capacity);
      freq;
      copy_cycles_per_mb = Units.cycles_of_us freq 100;
      penalty_sec;
      rebalance;
      queue = [];
      log_rev = [];
      placements = 0;
      deferrals = 0;
      evictions = 0;
      migrations = 0;
      nacks = 0;
      departures = 0;
      double_places = 0;
      admitted = 0;
      last_change = 0;
      resident_integral = 0.0;
    }
  in
  (* arrivals fire on the controller's engine at their trace times *)
  Array.iter
    (fun u ->
      let at =
        max 1 (Units.cycles_of_sec_f freq u.cu_entry.Vtrace.e_arrive_sec)
      in
      let (_ : Engine.handle) =
        Engine.schedule_at (inc_engine t) ~time:at (fun () -> arrive t u)
      in
      ())
    t.units;
  let period = 4 * Hosts.lookahead hosts in
  let (_ : unit -> unit) =
    Engine.periodic (inc_engine t) ~start:period ~period (fun () ->
        rebalance_tick t)
  in
  t

(* ----- run + report ----- *)

type vm_report = {
  v_name : string;
  v_phase : string;
  v_vcpus : int;
  v_run_at : int;
  v_life_cycles : int;
  v_departed_at : int;
  v_migrations : int;
  v_downtime_cycles : int;
  v_repredictions : int;
}

type host_report = {
  h_host : int;
  h_peak_used : int;
  h_physical : string list;  (** VMs attached to the host at the end *)
  h_view : string list;  (** controller bookkeeping for the host *)
}

type report = {
  cr_hosts : int;
  cr_workers : int;
  cr_policy : string;
  cr_wall_sec : float;
  cr_sim_sec : float;
  cr_end_cycles : int;
  cr_events : int;
  cr_windows : int;
  cr_cross_posts : int;
  cr_density : float;
  cr_p99_stall_ms : float;
  cr_mean_stall_ms : float;
  cr_stall_samples : int;
  cr_stall_tail : (int * int) list;
  cr_placements : int;
  cr_deferrals : int;
  cr_evictions : int;
  cr_migrations : int;
  cr_nacks : int;
  cr_departures : int;
  cr_repredictions : int;
  cr_double_places : int;
  cr_log : (int * string) list;
  cr_digest : int;
  cr_fingerprint : string;
  cr_vms : vm_report list;
  cr_host_reports : host_report list;
}

let stall_histogram t =
  Array.fold_left
    (fun acc u ->
      Sim_stats.Histogram.merge acc
        (Sim_guest.Monitor.spin_histogram
           (Sim_guest.Kernel.monitor u.cu_vm.Hosts.kernel)))
    (Sim_stats.Histogram.create ()) t.units

(* p99 over real (non-zero) spin waits, HDR-style: locate the
   power-of-two bucket holding the 99th-percentile sample, then
   interpolate its position linearly inside the bucket so tail shifts
   smaller than a full doubling still move the estimate. *)
let p99_cycles hist =
  let positive = Sim_stats.Histogram.count_ge_pow2 hist 1 in
  if positive = 0 then 0.0
  else begin
    let target = 0.99 *. float_of_int positive in
    let k = ref 1 and cum = ref 0 in
    while
      !k < 62
      && float_of_int (!cum + Sim_stats.Histogram.bucket hist !k) < target
    do
      cum := !cum + Sim_stats.Histogram.bucket hist !k;
      incr k
    done;
    let in_bucket = Sim_stats.Histogram.bucket hist !k in
    let frac =
      if in_bucket = 0 then 0.0
      else (target -. float_of_int !cum) /. float_of_int in_bucket
    in
    float_of_int (1 lsl !k) *. (1.0 +. frac)
  end

let log_digest log =
  List.fold_left
    (fun acc (time, s) -> (acc * 1_000_003) lxor time lxor Hashtbl.hash s)
    0x6d5a log

let placement_log t = List.rev t.log_rev

(* the names of the VMs attached to host [k] *)
let physical t k =
  List.map (fun (vm : Hosts.vm) -> vm.Hosts.name)
    (Hosts.residents t.hosts k)

let digest t =
  Fabric.digest (Hosts.fabric t.hosts) lxor log_digest (placement_log t)

let run ?workers t ~horizon_sec =
  let r =
    Hosts.run ?workers
      ~until:(Units.cycles_of_sec_f t.freq horizon_sec)
      ~stop:(fun () ->
        Array.for_all (fun u -> u.cu_phase = Departed) t.units)
      t.hosts
  in
  (* close the density integral at the controller's final clock *)
  note_admitted_change t 0;
  let end_cycles = max 1 (inc_now t) in
  let fabric = Hosts.fabric t.hosts in
  let hist = stall_histogram t in
  let n = t.nhosts in
  let density =
    t.resident_integral /. float_of_int end_cycles /. float_of_int n
  in
  let log = placement_log t in
  {
    cr_hosts = n;
    cr_workers = r.Hosts.workers;
    cr_policy = Placement.policy_name t.policy;
    cr_wall_sec = r.Hosts.wall_sec;
    cr_sim_sec = Units.sec_of_cycles t.freq r.Hosts.sim_end;
    cr_end_cycles = end_cycles;
    cr_events = Fabric.events_fired fabric;
    cr_windows = Fabric.windows fabric;
    cr_cross_posts = Fabric.cross_posts fabric;
    cr_density = density;
    cr_p99_stall_ms = Units.ms_of_cycles t.freq 1 *. p99_cycles hist;
    cr_mean_stall_ms =
      (if Sim_stats.Histogram.count hist = 0 then 0.0
       else
         Units.ms_of_cycles t.freq 1
         *. (float_of_int (Sim_stats.Histogram.sum hist)
            /. float_of_int (Sim_stats.Histogram.count hist)));
    cr_stall_samples = Sim_stats.Histogram.count hist;
    cr_stall_tail =
      List.map
        (fun k -> (k, Sim_stats.Histogram.count_ge_pow2 hist k))
        [ 10; 15; 20; 25 ];
    cr_placements = t.placements;
    cr_deferrals = t.deferrals;
    cr_evictions = t.evictions;
    cr_migrations = t.migrations;
    cr_nacks = t.nacks;
    cr_departures = t.departures;
    cr_repredictions =
      Array.fold_left (fun acc u -> acc + u.cu_repredictions) 0 t.units;
    cr_double_places = t.double_places;
    cr_log = log;
    cr_digest = digest t;
    cr_fingerprint = Fabric.fingerprint fabric;
    cr_vms =
      Array.to_list
        (Array.map
           (fun u ->
             {
               v_name = name u;
               v_phase = phase_name u.cu_phase;
               v_vcpus = u.cu_entry.Vtrace.e_vcpus;
               v_run_at = u.cu_run_at;
               v_life_cycles = u.cu_life_cycles;
               v_departed_at = u.cu_departed_at;
               v_migrations = u.cu_migrations;
               v_downtime_cycles = u.cu_downtime;
               v_repredictions = u.cu_repredictions;
             })
           t.units);
    cr_host_reports =
      List.init n (fun k ->
          {
            h_host = k;
            h_peak_used = t.views.(k).Placement.h_peak_used;
            h_physical = List.sort compare (physical t k);
            h_view =
              List.sort compare
                (List.map
                   (fun (r : Placement.resident) -> r.Placement.r_name)
                   t.views.(k).Placement.h_residents);
          });
  }

(* Every summary row of a report, in printed order: the label, the
   run record's ["cluster"] entry (key, value) when the row is
   recorded, and the printed form. *)
let report_rows r =
  let int ?key label v =
    (label, Option.map (fun k -> (k, float_of_int v)) key, string_of_int v)
  in
  let flt ?key fmt label v =
    (label, Option.map (fun k -> (k, v)) key, Printf.sprintf fmt v)
  in
  [
    flt ~key:"density" "%.3f" "density (VMs/host)" r.cr_density;
    flt ~key:"p99_stall_ms" "%.3f" "p99 stall (ms)" r.cr_p99_stall_ms;
    flt ~key:"mean_stall_ms" "%.4f" "mean stall (ms)" r.cr_mean_stall_ms;
    int "stall samples" r.cr_stall_samples;
    ( "stall tail",
      None,
      String.concat " "
        (List.map (fun (k, c) -> Printf.sprintf ">=2^%d:%d" k c) r.cr_stall_tail)
    );
    int ~key:"placements" "placements" r.cr_placements;
    int ~key:"deferrals" "deferrals" r.cr_deferrals;
    int ~key:"evictions" "evictions" r.cr_evictions;
    int ~key:"migrations" "migrations" r.cr_migrations;
    int "nacks" r.cr_nacks;
    int ~key:"departures" "departures" r.cr_departures;
    int ~key:"repredictions" "repredictions" r.cr_repredictions;
    flt "%.3f" "sim sec" r.cr_sim_sec;
    int "events" r.cr_events;
    int "windows" r.cr_windows;
    int "cross posts" r.cr_cross_posts;
    flt "%.2f" "wall sec" r.cr_wall_sec;
    ("digest", None, Printf.sprintf "%08x" (r.cr_digest land 0xffffffff));
  ]

(* The record section keeps the entry order it has always had, so a
   record compares entry for entry with older ones. *)
let report_metrics r =
  let recorded = List.filter_map (fun (_, e, _) -> e) (report_rows r) in
  List.map
    (fun k -> (k, List.assoc k recorded))
    [
      "density"; "p99_stall_ms"; "mean_stall_ms"; "migrations"; "evictions";
      "deferrals"; "departures"; "placements"; "repredictions";
    ]

let render ?(log = false) config ~sched ~dist r =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  line
    "cluster: %d hosts (%s each), %d VMs (%s lifetimes), policy %s, sched \
     %s, %d workers\n"
    r.cr_hosts
    (Sim_hw.Topology.to_string config.Asman.Config.topology)
    (List.length r.cr_vms) (Vtrace.dist_name dist) r.cr_policy
    (Asman.Config.sched_name sched) r.cr_workers;
  List.iter
    (fun (label, _, shown) -> line "  %-24s %s\n" label shown)
    (report_rows r);
  List.iter
    (fun h ->
      line "  host %d: peak %d slots, final [%s]\n" h.h_host h.h_peak_used
        (String.concat " " h.h_physical))
    r.cr_host_reports;
  if log then List.iter (fun (time, s) -> line "  @%-12d %s\n" time s) r.cr_log;
  Buffer.contents buf

(* ----- cluster-conservation oracle ----- *)

(* Slack granted to in-flight drains when judging "this VM should
   have departed by now": covers the controller's mid-migration
   retries, the stop-and-copy latency, the guest's halt drain under
   overcommit, and the quiescence polling cadence. *)
let departure_slack t = 30 * Hosts.lookahead t.hosts

let conservation_errors t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = t.nhosts in
  let phys_names = physical t in
  let view_names k =
    List.map
      (fun (r : Placement.resident) -> r.Placement.r_name)
      t.views.(k).Placement.h_residents
  in
  let mem name l = List.exists (String.equal name) l in
  let ids l = String.concat "," (List.map string_of_int l) in
  let count name l =
    List.length (List.filter (String.equal name) l)
  in
  (* no VM on two hosts, physically or in the controller's books *)
  Array.iter
    (fun u ->
      let name = name u in
      let phys_on = List.filter (fun k -> mem name (phys_names k)) (List.init n Fun.id) in
      let view_on = List.filter (fun k -> mem name (view_names k)) (List.init n Fun.id) in
      if List.length phys_on > 1 then
        err "%s physically resident on hosts %s" name (ids phys_on);
      if List.length view_on > 1 then
        err "%s in the controller's books on hosts %s (duplicated)" name (ids view_on);
      List.iter
        (fun k ->
          if count name (view_names k) > 1 then
            err "%s appears twice in host %d's books" name k)
        view_on;
      (* phase-consistency between books and physical truth *)
      (match u.cu_phase with
      | Incubating | Pending ->
        if phys_on <> [] then err "%s is %s but attached to a host" name (phase_name u.cu_phase);
        if view_on <> [] then err "%s is %s but in the books" name (phase_name u.cu_phase)
      | Placing h ->
        if view_on <> [ h ] then
          err "%s placing on host %d but booked on [%s]" name h (ids view_on);
        if phys_on <> [] && phys_on <> [ h ] then
          err "%s placing on host %d but attached to [%s]" name h (ids phys_on)
      | Resident h ->
        if view_on <> [ h ] then
          err "%s on host %d per phase but booked on [%s]" name h (ids view_on);
        if phys_on <> [ h ] then
          err "%s on host %d per phase but attached to [%s]" name h (ids phys_on)
      | Departing h | Evicting h ->
        if view_on <> [ h ] then
          err "%s on host %d per phase but booked on [%s]" name h (ids view_on);
        (* the host detaches as soon as the drain lands; until the
           controller's ack arrives one lookahead later the VM is
           legitimately attached nowhere *)
        if phys_on <> [ h ] && phys_on <> [] then
          err "%s leaving host %d but attached to [%s]" name h (ids phys_on)
      | Migrating (_, d) ->
        if view_on <> [] then
          err "%s mid-migration but still in the books on [%s]" name (ids view_on);
        if phys_on <> [] && phys_on <> [ d ] then
          err "%s mid-migration but attached to [%s]" name (ids phys_on)
      | Departed ->
        if phys_on <> [] then err "%s departed but still attached" name;
        if view_on <> [] then err "%s departed but still in the books" name))
    t.units;
  (* capacity was never oversubscribed in the books *)
  Array.iter
    (fun (v : Placement.host_view) ->
      if v.Placement.h_peak_used > v.Placement.h_capacity then
        err "host %d peak occupancy %d exceeds capacity %d" v.Placement.h_id
          v.Placement.h_peak_used v.Placement.h_capacity)
    t.views;
  (* departures match the trace: never early, and never missing once
     the lifetime (plus drain slack) fits inside the run *)
  let end_now = inc_now t in
  Array.iter
    (fun u ->
      let name = name u in
      if u.cu_departed_at >= 0 && u.cu_run_at >= 0
         && u.cu_departed_at < u.cu_run_at + u.cu_life_cycles
      then
        err "%s departed early (at %d, lifetime ends %d)" name
          u.cu_departed_at (u.cu_run_at + u.cu_life_cycles);
      if
        u.cu_run_at >= 0 && u.cu_phase <> Departed
        && u.cu_run_at + u.cu_life_cycles + departure_slack t < end_now
      then
        err "%s should have departed by %d but is %s at %d" name
          (u.cu_run_at + u.cu_life_cycles + departure_slack t)
          (phase_name u.cu_phase) end_now)
    t.units;
  (* the log is exactly-once: one place and at most one depart per VM *)
  let log = placement_log t in
  Array.iter
    (fun u ->
      let name = name u in
      let count_prefix prefix =
        List.length
          (List.filter (fun (_, s) -> String.starts_with ~prefix s) log)
      in
      (* the trailing space/keyword keeps "vm1" from matching "vm10" *)
      let places = count_prefix (Printf.sprintf "place %s host" name) in
      let departs = count_prefix (Printf.sprintf "depart %s " name) in
      if u.cu_run_at >= 0 && places <> 1 then
        err "%s placed %d times in the log" name places;
      if departs > 1 then err "%s departed %d times in the log" name departs;
      if u.cu_phase = Departed && departs = 0 then
        err "%s departed with no log entry" name)
    t.units;
  List.rev !errs
