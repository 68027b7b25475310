open Sched_intf

let requeue_current api ~pcpu =
  match api.current pcpu with
  | Some _ -> api.make_idle ~pcpu
  | None -> ()

let allow_any _v ~dst:_ = true

(* One pass over the non-empty run queues in PCPU order, folding each
   into the incumbent candidate; with the NUMA model, [local] selects
   the same-socket queues or the remote ones. An empty queue holds no
   candidate, so the walk follows the occupancy bitmap from [p] and
   never visits one. A top-level function rather than a closure local
   to [steal], which would be allocated on every steal. *)
let rec scan_queues api ~dst ~under_only ~allowed ~local p candidate =
  let src = Runqueue.next_occupied api.runqueues.(dst) p in
  if src < 0 then candidate
  else begin
    let candidate =
      if
        src <> dst
        &&
        match api.numa with
        | None -> true
        | Some { topo; _ } -> Sim_hw.Topology.same_socket topo src dst = local
      then
        Runqueue.steal_candidate api.runqueues.(src) ~dst ~under_only ~allowed
          candidate
      else candidate
    in
    scan_queues api ~dst ~under_only ~allowed ~local (src + 1) candidate
  end

let steal api ~dst ~under_only ~allowed =
  (* Same-socket runqueues first: a local candidate wins even when a
     remote one holds more credit (LLC locality beats strict credit
     order). Falls back to the remote sockets. *)
  let candidate =
    match
      (scan_queues api ~dst ~under_only ~allowed ~local:true 0 None, api.numa)
    with
    | None, Some _ ->
      scan_queues api ~dst ~under_only ~allowed ~local:false 0 None
    | found, _ -> found
  in
  match candidate with
  | None -> None
  | Some v ->
    api.migrate v ~dst;
    candidate

let pick_baseline api ~pcpu ~allowed =
  let rq = api.runqueues.(pcpu) in
  match Runqueue.head_under rq with
  | Some v -> Some v
  | None -> begin
    match steal api ~dst:pcpu ~under_only:true ~allowed with
    | Some v -> Some v
    | None -> begin
      (* The cap is enforced by parking at accounting events, so an
         unparked OVER VCPU may run between events even in the
         non-work-conserving mode (as Xen behaves). *)
      match Runqueue.head rq with
      | Some v -> Some v
      | None -> steal api ~dst:pcpu ~under_only:false ~allowed
    end
  end

let is_idle api p =
  api.pcpu_online p
  && match api.current p with None -> true | Some _ -> false

let rec first_idle api p =
  if p >= Array.length api.runqueues then -1
  else if is_idle api p then p
  else first_idle api (p + 1)

let idle_target api ~home = if is_idle api home then home else first_idle api 0

let kick_idle api ~pick =
  let n = Array.length api.runqueues in
  for pcpu = 0 to n - 1 do
    match api.current pcpu with
    | None when not (api.pcpu_online pcpu) -> ()
    | None -> begin
      match pick ~pcpu with
      | Some v -> api.run_on ~pcpu v
      | None -> ()
    end
    | Some _ -> ()
  done

let assign_credit api =
  Credit.assign
    ~domains:(api.domains ())
    ~pcpus:(Array.length api.runqueues)
    ~slots_per_period:
      (Sim_hw.Machine.cpu_model api.machine).Sim_hw.Cpu_model.slots_per_period
    ~credit_unit:api.credit_unit ~work_conserving:api.work_conserving

let preempt_parked api ~refill =
  Array.iteri
    (fun pcpu _rq ->
      match api.current pcpu with
      | Some (v : Vcpu.t) when v.Vcpu.parked && not v.Vcpu.boosted ->
        api.make_idle ~pcpu;
        refill ~pcpu
      | Some _ | None -> ())
    api.runqueues
