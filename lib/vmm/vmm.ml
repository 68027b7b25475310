open Sim_engine
open Sim_hw
module Trace = Sim_obs.Trace
module Metrics = Sim_obs.Metrics

type invariant_mode = Off | Record | Raise

type accounting = Precise | Sampled

let accounting_name = function Precise -> "precise" | Sampled -> "sampled"

let accounting_of_name s =
  match String.lowercase_ascii s with
  | "precise" | "exact" -> Some Precise
  | "sampled" | "sample" | "xen" -> Some Sampled
  | _ -> None

exception Invariant_violation of string

(* Keep at most this many violation messages; the count keeps going. *)
let max_recorded_violations = 1000

let credit_unit = Credit.default_credit_unit

(* Queue membership of one VCPU at an audit of the run queues: how
   many distinct queues hold it, and whether its home queue is one of
   them. The records outlive the audit that counted them, so an audit
   allocates only for VCPUs it sees for the first time. *)
type membership = {
  mutable audit : int;  (** the audit these counts belong to *)
  mutable queues : int;
  mutable last_rq : int;
  mutable in_home : bool;
}

type t = {
  engine : Engine.t;
  machine : Machine.t;
  cpu_model : Cpu_model.t;
  runqueues : Runqueue.t array;
  current : Vcpu.t option array;
  running : Vcpu.state array;  (** [Running p] at index [p], built once *)
  mutable domains_rev : Domain.t list;  (** newest first; O(1) to extend *)
  mutable domains : Domain.t list;
      (** creation/attach order: [List.rev domains_rev], rebuilt by
          [domains] when [domains_stale] *)
  mutable domains_stale : bool;
  mutable sched : Sched_intf.t option;
  work_conserving : bool;
  accounting : accounting;
  numa : Sched_intf.numa option;
  mutable numa_remote_relocs : int;
  mutable next_vcpu_id : int;
  mutable next_domain_id : int;
  slot_counts : int array;  (** per-PCPU slot boundaries seen *)
  (* accounting *)
  idle_since : int array;  (** -1 when busy *)
  idle_cycles : int array;
  mutable ctx_switches : int;
  mutable ple_count : int;
  mutable acct_start : int;
  acct_online_base : (int, int) Hashtbl.t;  (** domain id -> online at reset *)
  mutable started : bool;
  (* resilience *)
  watchdog : Watchdog.params option;
  mutable vcrd_filter : (Domain.t -> Domain.vcrd -> Domain.vcrd option) option;
  mutable invariant_mode : invariant_mode;
  mutable violations_rev : string list;  (** bounded; newest first *)
  mutable violations_count : int;
  mutable last_credit_sum : int option;  (** at the previous period check *)
  membership : membership Id_table.t;  (** VCPU id -> queue membership *)
  mutable audits : int;
  (* observability *)
  metrics : Metrics.t;
  viol_by_domain : (int, Metrics.counter) Hashtbl.t;
}

let engine t = t.engine
let cpu_model t = t.cpu_model
let pcpu_count t = Machine.pcpu_count t.machine

let accounting t = t.accounting

(* Creating or attaching a domain only conses onto [domains_rev]; the
   creation-order list is rebuilt at the next read (and at [start]),
   so building a member of n domains is linear, and a read after
   [start] is a field read until the next attach or detach. *)
let domains t =
  if t.domains_stale then begin
    t.domains <- List.rev t.domains_rev;
    t.domains_stale <- false
  end;
  t.domains

let add_domain t dom =
  t.domains_rev <- dom :: t.domains_rev;
  t.domains_stale <- true

let now t = Engine.now t.engine

let metrics t = t.metrics

let slot_cycles t = Cpu_model.slot_cycles t.cpu_model

(* Charge the VCPU for the span it has been online and accumulate its
   online time. Called exactly once per online span, when it ends.
   Like Xen, debt is floored at one accounting period's worth of burn
   so a VCPU that overdraws cannot be starved for many periods.

   [at_tick] marks the periodic credit-tick call site
   ([charge_current] from the slot handler), the only place [Sampled]
   accounting debits: whoever occupies the PCPU at the tick pays one
   full tick quantum, however briefly it actually ran — Xen's
   discipline, and exactly the surface the tick-dodging attack
   exploits. [Precise] burns span-exact cycles everywhere and is the
   defense. *)
let charge ?(at_tick = false) t (v : Vcpu.t) =
  let ran = now t - v.Vcpu.last_dispatch in
  (* A pending cross-socket relocation penalty is consumed time the
     flat-host model never sees: it inflates the burned span (still
     capped at one slot) but not wall-clock online time. Zero unless
     the NUMA model is armed. *)
  let penalty = v.Vcpu.reloc_penalty in
  if penalty > 0 then v.Vcpu.reloc_penalty <- 0;
  let ran_capped = Int.min (ran + penalty) (slot_cycles t) in
  let floor = -(credit_unit * t.cpu_model.Cpu_model.slots_per_period) in
  let burned =
    if Mutation.enabled Mutation.Skip_credit_burn then 0
    else begin
      match t.accounting with
      | Precise ->
        if Mutation.enabled Mutation.Sampled_accounting && not at_tick then 0
        else
          Credit.burn ~credit_unit ~slot_cycles:(slot_cycles t)
            ~run_cycles:ran_capped
      | Sampled ->
        if at_tick then
          Credit.burn ~credit_unit ~slot_cycles:(slot_cycles t)
            ~run_cycles:(slot_cycles t)
        else 0
    end
  in
  v.Vcpu.credit <- Int.max floor (v.Vcpu.credit - burned);
  v.Vcpu.online_cycles <- v.Vcpu.online_cycles + ran;
  let tr = Engine.trace t.engine in
  if Trace.on tr Trace.Credit then
    Trace.emit tr ~now:(now t)
      (Trace.Credit_account
         { vcpu = v.Vcpu.id; domain = v.Vcpu.domain_id;
           credit = v.Vcpu.credit; burned })

let begin_idle t pcpu = t.idle_since.(pcpu) <- now t

let end_idle t pcpu =
  if t.idle_since.(pcpu) >= 0 then begin
    t.idle_cycles.(pcpu) <- t.idle_cycles.(pcpu) + (now t - t.idle_since.(pcpu));
    t.idle_since.(pcpu) <- -1
  end

(* Take the occupant off [pcpu], charge it, requeue it and notify the
   guest. The PCPU is left idle (accounting started). *)
let preempt_current t pcpu =
  match t.current.(pcpu) with
  | None -> ()
  | Some cur ->
    charge t cur;
    cur.Vcpu.state <- Vcpu.Ready;
    cur.Vcpu.boosted <- false;
    t.current.(pcpu) <- None;
    begin_idle t pcpu;
    Runqueue.insert t.runqueues.(pcpu) cur;
    let tr = Engine.trace t.engine in
    if Trace.on tr Trace.Sched then
      Trace.emit tr ~now:(now t) (Trace.Sched_idle { pcpu });
    cur.Vcpu.hooks.Vcpu.on_preempted ()

let run_on t ~pcpu (v : Vcpu.t) =
  match t.current.(pcpu) with
  | Some cur when cur == v -> ()
  | _ ->
    if not (Vcpu.is_ready v) then
      invalid_arg "Vmm.run_on: vcpu is not Ready";
    if not (Machine.pcpu_online t.machine pcpu) then
      invalid_arg "Vmm.run_on: pcpu is offline";
    preempt_current t pcpu;
    (* The preemption above may have re-entered the scheduler via
       guest hooks only in block paths, which cannot happen here; the
       VCPU is still Ready in some queue. *)
    Runqueue.remove t.runqueues.(v.Vcpu.home) v;
    if v.Vcpu.home <> pcpu then begin
      v.Vcpu.migrations <- v.Vcpu.migrations + 1;
      match t.numa with
      | Some { Sched_intf.topo; reloc_penalty_cycles }
        when not (Topology.same_socket topo v.Vcpu.home pcpu) ->
        v.Vcpu.reloc_penalty <- v.Vcpu.reloc_penalty + reloc_penalty_cycles;
        t.numa_remote_relocs <- t.numa_remote_relocs + 1
      | Some _ | None -> ()
    end;
    end_idle t pcpu;
    v.Vcpu.home <- pcpu;
    v.Vcpu.state <- t.running.(pcpu);
    v.Vcpu.last_dispatch <- now t;
    v.Vcpu.dispatches <- v.Vcpu.dispatches + 1;
    t.current.(pcpu) <- v.Vcpu.some;
    t.ctx_switches <- t.ctx_switches + 1;
    let tr = Engine.trace t.engine in
    if Trace.on tr Trace.Sched then
      Trace.emit tr ~now:(now t)
        (Trace.Sched_switch
           { pcpu; vcpu = v.Vcpu.id; domain = v.Vcpu.domain_id });
    v.Vcpu.hooks.Vcpu.on_scheduled ()

let make_idle t ~pcpu = preempt_current t pcpu

let migrate t (v : Vcpu.t) ~dst =
  if not (Vcpu.is_ready v) then invalid_arg "Vmm.migrate: vcpu is not Ready";
  if v.Vcpu.home <> dst then begin
    if not (Mutation.enabled Mutation.Double_insert_reloc) then
      Runqueue.remove t.runqueues.(v.Vcpu.home) v;
    v.Vcpu.migrations <- v.Vcpu.migrations + 1;
    (match t.numa with
    | Some { Sched_intf.topo; reloc_penalty_cycles }
      when not (Topology.same_socket topo v.Vcpu.home dst) ->
      v.Vcpu.reloc_penalty <- v.Vcpu.reloc_penalty + reloc_penalty_cycles;
      t.numa_remote_relocs <- t.numa_remote_relocs + 1
    | Some _ | None -> ());
    Runqueue.insert t.runqueues.(dst) v
  end

let domain_online_cycles t dom =
  let base = Domain.online_cycles dom in
  Array.fold_left
    (fun acc (v : Vcpu.t) ->
      match v.Vcpu.state with
      | Vcpu.Running _ -> acc + (now t - v.Vcpu.last_dispatch)
      | Vcpu.Ready | Vcpu.Blocked -> acc)
    base dom.Domain.vcpus

(* ----- attained vs entitled (theft accounting) ----- *)

(* Online cycles attained by the domain over the current measurement
   window (counts open spans). *)
let attained_cycles t dom =
  let base =
    match Hashtbl.find_opt t.acct_online_base dom.Domain.id with
    | Some b -> b
    | None -> 0
  in
  domain_online_cycles t dom - base

(* The domain's proportional-share entitlement over the same window:
   Eq.(2)'s per-VCPU expected online rate times elapsed wall time and
   VCPU count. *)
let entitled_cycles t dom =
  let elapsed = now t - t.acct_start in
  if elapsed <= 0 then 0
  else begin
    let e =
      Domain.expected_online_rate dom ~all:(domains t) ~pcpus:(pcpu_count t)
    in
    int_of_float
      (e *. float_of_int elapsed *. float_of_int (Domain.vcpu_count dom))
  end

(* Cycles attained beyond entitlement — the theft a scheduler-attack
   guest extracts. Zero for any domain at or below its share. *)
let theft_cycles t dom =
  Int.max 0 (attained_cycles t dom - entitled_cycles t dom)

(* Register the standing gauges: closures over counters the
   subsystems already keep, evaluated only at snapshot time so the
   hot paths are untouched. One registry per Vmm (never global) keeps
   parallel Pool jobs deterministic at any worker count. *)
let register_gauges t =
  let m = t.metrics in
  Metrics.gauge m ~subsystem:"engine" ~name:"events_fired" (fun () ->
      Engine.events_fired t.engine);
  Metrics.gauge m ~subsystem:"engine" ~name:"pending_events" (fun () ->
      Engine.pending_count t.engine);
  Metrics.gauge m ~subsystem:"hw" ~name:"ipis_sent" (fun () ->
      Machine.ipis_sent t.machine);
  Metrics.gauge m ~subsystem:"hw" ~name:"ipis_cross_socket" (fun () ->
      Machine.ipis_cross_socket t.machine);
  Metrics.gauge m ~subsystem:"hw" ~name:"ipis_dropped" (fun () ->
      Machine.ipis_dropped t.machine);
  Metrics.gauge m ~subsystem:"hw" ~name:"ipis_delayed" (fun () ->
      Machine.ipis_delayed t.machine);
  Metrics.gauge m ~subsystem:"hw" ~name:"ticks_suppressed" (fun () ->
      Machine.ticks_suppressed t.machine);
  Metrics.gauge m ~subsystem:"vmm" ~name:"ctx_switches" (fun () ->
      t.ctx_switches);
  Metrics.gauge m ~subsystem:"vmm" ~name:"ple_exits" (fun () -> t.ple_count);
  Metrics.gauge m ~subsystem:"vmm" ~name:"numa_remote_relocs" (fun () ->
      t.numa_remote_relocs);
  Metrics.gauge m ~subsystem:"vmm" ~name:"invariant_violations" (fun () ->
      t.violations_count);
  Array.iteri
    (fun p rq ->
      Metrics.gauge m ~subsystem:"vmm"
        ~name:(Printf.sprintf "runqueue_depth_p%d" p)
        (fun () -> Runqueue.length rq))
    t.runqueues

let api t : Sched_intf.api =
  {
    Sched_intf.machine = t.machine;
    runqueues = t.runqueues;
    domains = (fun () -> domains t);
    work_conserving = t.work_conserving;
    now = (fun () -> now t);
    current = (fun pcpu -> t.current.(pcpu));
    run_on = (fun ~pcpu v -> run_on t ~pcpu v);
    make_idle = (fun ~pcpu -> make_idle t ~pcpu);
    migrate = (fun v ~dst -> migrate t v ~dst);
    domain_online = (fun dom -> domain_online_cycles t dom);
    pcpu_online = (fun pcpu -> Machine.pcpu_online t.machine pcpu);
    watchdog = t.watchdog;
    metrics = t.metrics;
    numa = t.numa;
  }

let create ?(work_conserving = true) ?(accounting = Precise) ?watchdog ?numa
    ?(domain_id_base = 0) ?(vcpu_id_base = 0) machine ~sched =
  let n = Machine.pcpu_count machine in
  let t =
    {
      engine = Machine.engine machine;
      machine;
      cpu_model = Machine.cpu_model machine;
      runqueues = Runqueue.create_set n;
      current = Array.make n None;
      running = Array.init n (fun pcpu -> Vcpu.Running pcpu);
      domains_rev = [];
      domains = [];
      domains_stale = false;
      sched = None;
      work_conserving;
      accounting;
      numa;
      numa_remote_relocs = 0;
      next_vcpu_id = vcpu_id_base;
      next_domain_id = domain_id_base;
      slot_counts = Array.make n 0;
      idle_since = Array.make n 0;
      idle_cycles = Array.make n 0;
      ctx_switches = 0;
      ple_count = 0;
      acct_start = 0;
      acct_online_base = Hashtbl.create 8;
      started = false;
      watchdog;
      vcrd_filter = None;
      invariant_mode = Off;
      violations_rev = [];
      violations_count = 0;
      last_credit_sum = None;
      metrics = Metrics.create ();
      viol_by_domain = Hashtbl.create 8;
      membership = Id_table.create 1;
      audits = 0;
    }
  in
  register_gauges t;
  t.sched <- Some (sched (api t));
  t

let sched t =
  match t.sched with Some s -> s | None -> failwith "Vmm: no scheduler"

let create_domain t ?(concurrent_type = false) ~name ~weight ~vcpus () =
  if t.started then failwith "Vmm.create_domain: VMM already started";
  if vcpus <= 0 then invalid_arg "Vmm.create_domain: vcpus must be positive";
  let domain_id = t.next_domain_id in
  t.next_domain_id <- t.next_domain_id + 1;
  let n = pcpu_count t in
  let vcpu_array =
    Array.init vcpus (fun index ->
        let id = t.next_vcpu_id in
        t.next_vcpu_id <- t.next_vcpu_id + 1;
        (* Spread homes so sibling VCPUs start on distinct PCPUs (when
           the domain has at most as many VCPUs as the machine), and
           stagger domains so they do not all pile onto PCPU 0. *)
        Vcpu.make ~id ~domain_id ~index ~home:((domain_id + index) mod n))
  in
  let dom =
    Domain.make ~concurrent_type ~id:domain_id ~name ~weight ~vcpus:vcpu_array ()
  in
  add_domain t dom;
  (* Fairness gauges: attained vs entitled share over the current
     accounting window, and the excess (theft). Evaluated only at
     snapshot time, like every gauge. *)
  Metrics.gauge t.metrics ~subsystem:"vmm" ~vm:name ~name:"attained_cycles"
    (fun () -> attained_cycles t dom);
  Metrics.gauge t.metrics ~subsystem:"vmm" ~vm:name ~name:"entitled_cycles"
    (fun () -> entitled_cycles t dom);
  Metrics.gauge t.metrics ~subsystem:"vmm" ~vm:name ~name:"theft_cycles"
    (fun () -> theft_cycles t dom);
  dom

(* Least-loaded online PCPU (ties broken towards the lowest index, so
   evacuation targets are deterministic). [excluding] lets the hotplug
   path skip the PCPU being taken down before its flag flips. *)
let least_loaded_online t ?(excluding = -1) () =
  let n = pcpu_count t in
  let best = ref (-1) in
  for p = 0 to n - 1 do
    if p <> excluding && Machine.pcpu_online t.machine p then
      if
        !best = -1
        || Runqueue.length t.runqueues.(p) < Runqueue.length t.runqueues.(!best)
      then best := p
  done;
  if !best = -1 then failwith "Vmm: no online pcpu" else !best

(* PCPU-offline fault: kick the occupant off and re-home every VCPU
   stranded on the dead PCPU's queue, so no Ready VCPU waits on a
   queue that will never be polled again. *)
let evacuate_pcpu t pcpu =
  preempt_current t pcpu;
  List.iter
    (fun (v : Vcpu.t) ->
      migrate t v ~dst:(least_loaded_online t ~excluding:pcpu ()))
    (Runqueue.to_list t.runqueues.(pcpu))

(* Burn credit for the running VCPU without descheduling it: Xen's
   10 ms credit tick, as opposed to the 30 ms slice decision. *)
let charge_current t pcpu =
  match t.current.(pcpu) with
  | None -> ()
  | Some v ->
    charge ~at_tick:true t v;
    v.Vcpu.last_dispatch <- now t

(* [v]'s membership record for the current audit, zeroed if an
   earlier audit counted it. *)
let membership t (v : Vcpu.t) =
  let m =
    match Id_table.find t.membership v.Vcpu.id with
    | m -> m
    | exception Not_found ->
      let m = { audit = t.audits; queues = 0; last_rq = -1; in_home = false } in
      Id_table.add t.membership v.Vcpu.id m;
      m
  in
  if m.audit <> t.audits then begin
    m.audit <- t.audits;
    m.queues <- 0;
    m.last_rq <- -1;
    m.in_home <- false
  end;
  m

(* One pass over the run queues opens a new audit. *)
let count_membership t =
  t.audits <- t.audits + 1;
  Array.iter
    (fun rq ->
      let p = Runqueue.pcpu rq in
      Runqueue.iter rq ~f:(fun (v : Vcpu.t) ->
          let m = membership t v in
          if m.last_rq <> p then begin
            m.queues <- m.queues + 1;
            m.last_rq <- p
          end;
          if v.Vcpu.home = p then m.in_home <- true))
    t.runqueues

let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Running VCPUs match the current array; offline PCPUs run nothing. *)
  Array.iteri
    (fun pcpu cur ->
      match cur with
      | Some (v : Vcpu.t) ->
        (match v.Vcpu.state with
        | Vcpu.Running p when p = pcpu -> ()
        | Vcpu.Running _ | Vcpu.Ready | Vcpu.Blocked ->
          err "pcpu %d holds vcpu %d whose state disagrees" pcpu v.Vcpu.id);
        if not (Machine.pcpu_online t.machine pcpu) then
          err "offline pcpu %d is running vcpu %d" pcpu v.Vcpu.id
      | None -> ())
    t.current;
  count_membership t;
  List.iter
    (fun dom ->
      Array.iter
        (fun (v : Vcpu.t) ->
          let m = membership t v in
          let queued = m.queues in
          match v.Vcpu.state with
          | Vcpu.Ready ->
            if queued <> 1 then
              err "ready vcpu %d is in %d queues" v.Vcpu.id queued
            else if not m.in_home then
              err "ready vcpu %d not in its home queue" v.Vcpu.id
          | Vcpu.Running pcpu ->
            if queued <> 0 then err "running vcpu %d is queued" v.Vcpu.id;
            (match t.current.(pcpu) with
            | Some cur when cur == v -> ()
            | Some _ | None -> err "vcpu %d not current on pcpu %d" v.Vcpu.id pcpu)
          | Vcpu.Blocked ->
            if queued <> 0 then err "blocked vcpu %d is queued" v.Vcpu.id)
        dom.Domain.vcpus)
    t.domains_rev;
  Array.iter
    (fun rq ->
      if Runqueue.occupied rq <> (Runqueue.length rq > 0) then
        err "rq %d occupancy bit %b but length %d" (Runqueue.pcpu rq)
          (Runqueue.occupied rq) (Runqueue.length rq))
    t.runqueues;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

(* ----- runtime invariant checking ----- *)

let set_invariant_mode t mode = t.invariant_mode <- mode

let invariant_mode t = t.invariant_mode

let set_vcrd_filter t f = t.vcrd_filter <- Some f

(* [domain = -1] means the violation has no single owning domain
   (structural, conservation or runqueue checks). *)
let record_violation ?(domain = -1) t msg =
  t.violations_count <- t.violations_count + 1;
  if t.violations_count <= max_recorded_violations then
    t.violations_rev <- msg :: t.violations_rev;
  if domain >= 0 then begin
    let c =
      match Hashtbl.find_opt t.viol_by_domain domain with
      | Some c -> c
      | None ->
        let vm =
          match
            List.find_opt (fun d -> d.Domain.id = domain) t.domains_rev
          with
          | Some d -> d.Domain.name
          | None -> Printf.sprintf "dom%d" domain
        in
        let c =
          Metrics.counter t.metrics ~subsystem:"vmm" ~vm
            ~name:"invariant_violations" ()
        in
        Hashtbl.replace t.viol_by_domain domain c;
        c
    in
    Metrics.incr c
  end;
  let tr = Engine.trace t.engine in
  if Trace.on tr Trace.Invariant then
    Trace.emit tr ~now:(now t) (Trace.Invariant_violation { domain });
  if t.invariant_mode = Raise then raise (Invariant_violation msg)

let credit_sum t =
  List.fold_left
    (fun acc dom ->
      Array.fold_left (fun acc (v : Vcpu.t) -> acc + v.Vcpu.credit) acc
        dom.Domain.vcpus)
    0 t.domains_rev

(* Fired every accounting period (after credit assignment) when the
   invariant mode is on. The conservation check is one-sided: credit
   only leaves the system through burning, the floor and the cap, so
   the sum may grow by at most one period's issue (plus one unit of
   rounding slack per domain) between two checks. *)
let run_invariant_checks t =
  let at = now t in
  (match check_invariants t with
  | Ok () -> ()
  | Error e -> record_violation t (Printf.sprintf "[%d] structural: %s" at e));
  let slots_per_period = t.cpu_model.Cpu_model.slots_per_period in
  let floor = -(credit_unit * slots_per_period) in
  let cap = Credit.cap ~credit_unit ~slots_per_period in
  List.iter
    (fun dom ->
      Array.iter
        (fun (v : Vcpu.t) ->
          if v.Vcpu.credit < floor || v.Vcpu.credit > cap then
            record_violation ~domain:dom.Domain.id t
              (Printf.sprintf "[%d] credit bound: vcpu %d has %d not in [%d, %d]"
                 at v.Vcpu.id v.Vcpu.credit floor cap))
        dom.Domain.vcpus)
    t.domains_rev;
  let sum = credit_sum t in
  (match t.last_credit_sum with
  | Some prev ->
    let total =
      Credit.total_per_period ~pcpus:(pcpu_count t) ~slots_per_period
        ~credit_unit
    in
    let slack = List.length t.domains_rev in
    if sum - prev > total + slack then
      record_violation t
        (Printf.sprintf
           "[%d] credit conservation: sum grew by %d > issue %d (+%d slack)" at
           (sum - prev) total slack)
  | None -> ());
  t.last_credit_sum <- Some sum;
  Array.iter
    (fun rq ->
      match Runqueue.check rq with
      | Ok () -> ()
      | Error e -> record_violation t (Printf.sprintf "[%d] runqueue: %s" at e))
    t.runqueues

let start t =
  if t.started then failwith "Vmm.start: already started";
  t.started <- true;
  ignore (domains t : Domain.t list);
  let slice = t.cpu_model.Cpu_model.slots_per_slice in
  Machine.set_slot_handler t.machine (fun pcpu ->
      charge_current t pcpu;
      let count = t.slot_counts.(pcpu) in
      t.slot_counts.(pcpu) <- count + 1;
      (* A busy PCPU reschedules at slice granularity (Xen's 30 ms
         allocation); an idle one re-polls every slot so runnable work
         is picked up within a tick. *)
      if
        count mod slice = 0
        || match t.current.(pcpu) with None -> true | Some _ -> false
      then
        (sched t).Sched_intf.on_slot ~pcpu);
  Machine.set_period_handler t.machine (fun () ->
      (sched t).Sched_intf.on_period ();
      if t.invariant_mode <> Off then run_invariant_checks t);
  Machine.set_hotplug_handler t.machine (fun ~pcpu ~online ->
      if not online then evacuate_pcpu t pcpu);
  Machine.start t.machine

let vcpu_wake t (v : Vcpu.t) =
  match v.Vcpu.state with
  | Vcpu.Blocked ->
    (* A fault may have offlined the VCPU's home while it slept. *)
    if not (Machine.pcpu_online t.machine v.Vcpu.home) then
      v.Vcpu.home <- least_loaded_online t ();
    v.Vcpu.state <- Vcpu.Ready;
    (sched t).Sched_intf.on_wake v
  | Vcpu.Ready | Vcpu.Running _ -> ()

let vcpu_block t (v : Vcpu.t) =
  match v.Vcpu.state with
  | Vcpu.Running pcpu ->
    charge t v;
    v.Vcpu.state <- Vcpu.Blocked;
    v.Vcpu.boosted <- false;
    t.current.(pcpu) <- None;
    begin_idle t pcpu;
    let tr = Engine.trace t.engine in
    if Trace.on tr Trace.Sched then
      Trace.emit tr ~now:(now t)
        (Trace.Sched_block
           { pcpu; vcpu = v.Vcpu.id; domain = v.Vcpu.domain_id });
    (sched t).Sched_intf.on_block v
  | Vcpu.Ready | Vcpu.Blocked ->
    invalid_arg "Vmm.vcpu_block: vcpu is not Running"

let do_vcrd_op t dom vcrd =
  (* The filter models a lossy/corrupting guest-to-VMM channel:
     [None] = the report never arrived. *)
  let delivered =
    match t.vcrd_filter with None -> Some vcrd | Some f -> f dom vcrd
  in
  match delivered with
  | None -> ()
  | Some vcrd ->
    if Domain.set_vcrd dom ~now:(now t) vcrd then begin
      let tr = Engine.trace t.engine in
      if Trace.on tr Trace.Vcrd then
        Trace.emit tr ~now:(now t)
          (Trace.Vcrd_change
             { domain = dom.Domain.id; high = dom.Domain.vcrd = Domain.High });
      (sched t).Sched_intf.on_vcrd_change dom
    end

let pause_loop_exit t v =
  t.ple_count <- t.ple_count + 1;
  let tr = Engine.trace t.engine in
  if Trace.on tr Trace.Spin then
    Trace.emit tr ~now:(now t)
      (Trace.Ple_exit { vcpu = v.Vcpu.id; domain = v.Vcpu.domain_id });
  (sched t).Sched_intf.on_ple v

let current_on t pcpu = t.current.(pcpu)

(* ----- decoupled-VMM domain migration ----- *)

let domain_credit_sum (dom : Domain.t) =
  Array.fold_left
    (fun acc (v : Vcpu.t) -> acc + v.Vcpu.credit)
    0 dom.Domain.vcpus

(* Scheduler-state part of the quiescence gate; the structural part
   (no VCPU Running, no pending guest-kernel events) belongs to the
   caller, which also owns the engine events a detached domain must
   not leave behind. *)
let sched_migratable t dom = (sched t).Sched_intf.migratable dom

(* Detach a quiescent domain from this host: its Ready VCPUs leave
   their run queues, its accounting base entry is dropped, and its
   credit leaves the conservation ledger so the next period check on
   this host sees no spurious shrinkage. The domain record itself —
   credit, online cycles, VCRD, per-VCPU counters — travels with the
   caller; that is the state a steal Grant message carries. *)
let detach_domain t (dom : Domain.t) =
  Array.iter
    (fun (v : Vcpu.t) ->
      match v.Vcpu.state with
      | Vcpu.Running _ ->
        invalid_arg
          (Printf.sprintf "Vmm.detach_domain: vcpu %d is running" v.Vcpu.id)
      | Vcpu.Ready -> Runqueue.remove t.runqueues.(v.Vcpu.home) v
      | Vcpu.Blocked -> ())
    dom.Domain.vcpus;
  if not (List.memq dom t.domains_rev) then
    invalid_arg
      (Printf.sprintf "Vmm.detach_domain: domain %d not on this host"
         dom.Domain.id);
  t.domains_rev <- List.filter (fun d -> d != dom) t.domains_rev;
  t.domains_stale <- true;
  (match t.last_credit_sum with
  | Some sum -> t.last_credit_sum <- Some (sum - domain_credit_sum dom)
  | None -> ());
  Hashtbl.remove t.acct_online_base dom.Domain.id

(* Attach a migrated-in domain. Unlike [create_domain] this is legal
   after [start]: VCPUs are re-homed deterministically onto this
   host's PCPUs (same spread rule as creation), Ready ones enter
   their new home queues, and the domain's credit joins the
   conservation ledger. The accounting base starts at the domain's
   current online total, so cycles attained on previous hosts do not
   count against this host's window. *)
let attach_domain t (dom : Domain.t) =
  let n = pcpu_count t in
  Array.iter
    (fun (v : Vcpu.t) ->
      (match v.Vcpu.state with
      | Vcpu.Running _ ->
        invalid_arg
          (Printf.sprintf "Vmm.attach_domain: vcpu %d is running" v.Vcpu.id)
      | Vcpu.Ready | Vcpu.Blocked -> ());
      let home = (dom.Domain.id + v.Vcpu.index) mod n in
      v.Vcpu.home <-
        (if Machine.pcpu_online t.machine home then home
         else least_loaded_online t ());
      if Vcpu.is_ready v then Runqueue.insert t.runqueues.(v.Vcpu.home) v)
    dom.Domain.vcpus;
  add_domain t dom;
  (match t.last_credit_sum with
  | Some sum -> t.last_credit_sum <- Some (sum + domain_credit_sum dom)
  | None -> ());
  Hashtbl.replace t.acct_online_base dom.Domain.id (domain_online_cycles t dom)

(* ----- accounting ----- *)


let reset_accounting t =
  t.acct_start <- now t;
  Hashtbl.reset t.acct_online_base;
  List.iter
    (fun d ->
      Hashtbl.replace t.acct_online_base d.Domain.id (domain_online_cycles t d))
    (domains t);
  Array.iteri
    (fun p since ->
      t.idle_cycles.(p) <- 0;
      if since >= 0 then t.idle_since.(p) <- now t)
    t.idle_since

let online_rate t dom =
  let elapsed = now t - t.acct_start in
  if elapsed <= 0 then 0.
  else
    float_of_int (attained_cycles t dom)
    /. (float_of_int elapsed *. float_of_int (Domain.vcpu_count dom))

let idle_fraction t =
  let elapsed = now t - t.acct_start in
  if elapsed <= 0 then 0.
  else begin
    let total = ref 0 in
    Array.iteri
      (fun p cycles ->
        let open_span =
          if t.idle_since.(p) >= 0 then
            now t - Int.max t.idle_since.(p) t.acct_start
          else 0
        in
        total := !total + cycles + open_span)
      t.idle_cycles;
    float_of_int !total /. (float_of_int elapsed *. float_of_int (pcpu_count t))
  end

let ctx_switches t = t.ctx_switches

let ple_exits t = t.ple_count

let invariant_violation_count t = t.violations_count

let invariant_violations t = List.rev t.violations_rev

let sched_counters t = (sched t).Sched_intf.counters ()
