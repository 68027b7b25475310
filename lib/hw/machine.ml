open Sim_engine

type ipi_fate = Deliver | Drop | Delay of int

type t = {
  engine : Engine.t;
  cpu_model : Cpu_model.t;
  topology : Topology.t;
  phases : int array;
  mutable slot_handler : (int -> unit) option;
  mutable period_handler : (unit -> unit) option;
  mutable started : bool;
  mutable ipis : int;
  mutable ipis_cross_socket : int;
  (* fault-injection surface: all hooks default to the fault-free
     identity so a machine with no injector behaves byte-identically
     to one built before this surface existed *)
  online : bool array;  (** offline PCPUs tick silently and drop IPIs *)
  stalled : bool array;  (** stalled PCPUs tick silently (lost timer) *)
  mutable ipi_filter : (src:int -> dst:int -> ipi_fate) option;
  mutable tick_jitter : (pcpu:int -> int) option;
  mutable hotplug_handler : (pcpu:int -> online:bool -> unit) option;
  mutable ipis_dropped : int;
  mutable ipis_delayed : int;
  mutable ticks_suppressed : int;
}

let create ?(stagger = true) engine cpu_model topology =
  (match Cpu_model.validate cpu_model with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  let n = Topology.pcpu_count topology in
  let slot = Cpu_model.slot_cycles cpu_model in
  let phases =
    Array.init n (fun k -> if stagger then k * slot / n else 0)
  in
  {
    engine;
    cpu_model;
    topology;
    phases;
    slot_handler = None;
    period_handler = None;
    started = false;
    ipis = 0;
    ipis_cross_socket = 0;
    online = Array.make n true;
    stalled = Array.make n false;
    ipi_filter = None;
    tick_jitter = None;
    hotplug_handler = None;
    ipis_dropped = 0;
    ipis_delayed = 0;
    ticks_suppressed = 0;
  }

let engine t = t.engine
let cpu_model t = t.cpu_model
let topology t = t.topology
let pcpu_count t = Topology.pcpu_count t.topology

let set_slot_handler t f = t.slot_handler <- Some f

let set_period_handler t f = t.period_handler <- Some f

let phase t pcpu = t.phases.(pcpu)

let next_boundary t ~pcpu ~after =
  let slot = Cpu_model.slot_cycles t.cpu_model in
  let ph = t.phases.(pcpu) in
  if after < ph then ph
  else begin
    let k = (after - ph) / slot in
    ph + ((k + 1) * slot)
  end

let start t =
  if t.started then failwith "Machine.start: already started";
  let slot_handler =
    match t.slot_handler with
    | Some f -> f
    | None -> failwith "Machine.start: no slot handler installed"
  in
  t.started <- true;
  let slot = Cpu_model.slot_cycles t.cpu_model in
  let period_slots = t.cpu_model.Cpu_model.slots_per_period in
  (* Period events are anchored to the bootstrap PCPU's clock and fire
     before its slot handler at the shared instant, so freshly assigned
     credits are visible to that boundary's decisions. The accounting
     timer is a VMM software clock: it keeps firing even when PCPU 0's
     slot timer is stalled or the PCPU is offlined by a fault. *)
  let (_ : unit -> unit) =
    Engine.periodic t.engine ~start:t.phases.(0) ~period:(slot * period_slots)
      (fun () -> match t.period_handler with Some f -> f () | None -> ())
  in
  for pcpu = 0 to pcpu_count t - 1 do
    let jitter =
      match t.tick_jitter with
      | None -> None
      | Some j -> Some (fun () -> j ~pcpu)
    in
    let (_ : unit -> unit) =
      Engine.periodic t.engine ~start:t.phases.(pcpu) ~period:slot ?jitter
        (fun () ->
          if t.online.(pcpu) && not t.stalled.(pcpu) then slot_handler pcpu
          else begin
            t.ticks_suppressed <- t.ticks_suppressed + 1;
            let tr = Engine.trace t.engine in
            if Sim_obs.Trace.on tr Sim_obs.Trace.Fault then
              Sim_obs.Trace.emit tr ~now:(Engine.now t.engine)
                (Sim_obs.Trace.Fault_injected
                   { kind = Sim_obs.Trace.fault_tick_suppressed; pcpu;
                     info = 0 })
          end)
    in
    ()
  done

let started t = t.started

(* ----- fault-injection surface ----- *)

let set_ipi_filter t f = t.ipi_filter <- Some f

let set_tick_jitter t f =
  if t.started then failwith "Machine.set_tick_jitter: machine already started";
  t.tick_jitter <- Some f

let set_hotplug_handler t f = t.hotplug_handler <- Some f

let pcpu_online t pcpu = t.online.(pcpu)

let pcpu_stalled t pcpu = t.stalled.(pcpu)

let online_count t =
  Array.fold_left (fun acc up -> if up then acc + 1 else acc) 0 t.online

let set_pcpu_stalled t ~pcpu stalled =
  if pcpu < 0 || pcpu >= pcpu_count t then
    invalid_arg "Machine.set_pcpu_stalled: bad pcpu";
  t.stalled.(pcpu) <- stalled

let set_pcpu_online t ~pcpu online =
  if pcpu < 0 || pcpu >= pcpu_count t then
    invalid_arg "Machine.set_pcpu_online: bad pcpu";
  if t.online.(pcpu) <> online then begin
    if (not online) && online_count t <= 1 then
      invalid_arg "Machine.set_pcpu_online: cannot offline the last PCPU";
    t.online.(pcpu) <- online;
    match t.hotplug_handler with
    | Some f -> f ~pcpu ~online
    | None -> ()
  end

let send_ipi t ~src ~dst callback =
  if dst < 0 || dst >= pcpu_count t then invalid_arg "Machine.send_ipi: bad dst";
  if src < 0 || src >= pcpu_count t then invalid_arg "Machine.send_ipi: bad src";
  t.ipis <- t.ipis + 1;
  (* Cross-socket interrupts traverse the interconnect: double latency. *)
  let cross = not (Topology.same_socket t.topology src dst) in
  if cross then t.ipis_cross_socket <- t.ipis_cross_socket + 1;
  let latency =
    t.cpu_model.Cpu_model.ipi_latency_cycles * if cross then 2 else 1
  in
  let fate =
    if not t.online.(dst) then Drop
    else
      match t.ipi_filter with
      | None -> Deliver
      | Some f -> f ~src ~dst
  in
  let tr = Engine.trace t.engine in
  if Sim_obs.Trace.on tr Sim_obs.Trace.Ipi then
    Sim_obs.Trace.emit tr ~now:(Engine.now t.engine)
      (Sim_obs.Trace.Ipi_sent { src; dst; cross });
  let emit_fault kind info =
    if Sim_obs.Trace.on tr Sim_obs.Trace.Fault then
      Sim_obs.Trace.emit tr ~now:(Engine.now t.engine)
        (Sim_obs.Trace.Fault_injected { kind; pcpu = dst; info })
  in
  match fate with
  | Drop ->
    t.ipis_dropped <- t.ipis_dropped + 1;
    emit_fault Sim_obs.Trace.fault_ipi_dropped src
  | Deliver ->
    ignore (Engine.schedule_after t.engine ~delay:latency callback)
  | Delay extra ->
    t.ipis_delayed <- t.ipis_delayed + 1;
    emit_fault Sim_obs.Trace.fault_ipi_delayed (max 0 extra);
    ignore
      (Engine.schedule_after t.engine ~delay:(latency + max 0 extra) callback)

let ipis_sent t = t.ipis

let ipis_cross_socket t = t.ipis_cross_socket

let ipis_dropped t = t.ipis_dropped

let ipis_delayed t = t.ipis_delayed

let ticks_suppressed t = t.ticks_suppressed
