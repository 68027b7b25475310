open Sched_intf

let make (api : api) : t =
  let pick ~pcpu =
    Sched_common.pick_baseline api ~pcpu ~allowed:Sched_common.allow_any
  in
  let decide ~pcpu =
    match pick ~pcpu with
    | Some v -> api.run_on ~pcpu v
    | None -> ()
  in
  let on_slot ~pcpu =
    Sched_common.requeue_current api ~pcpu;
    decide ~pcpu
  in
  let on_period () =
    Sched_common.assign_credit api;
    Sched_common.preempt_parked api ~refill:(fun ~pcpu -> decide ~pcpu)
  in
  let on_wake (v : Vcpu.t) =
    (* Queue at home, then grab an idle PCPU if one exists (prefer
       home) so wakeups are not delayed by a whole slot. *)
    let home = v.Vcpu.home in
    Runqueue.insert api.runqueues.(home) v;
    (* Xen fast-tracks only UNDER wakeups (BOOST); an OVER VCPU waits
       for its queue turn. *)
    if Vcpu.eligible v && v.Vcpu.credit >= 0 then begin
      let p = Sched_common.idle_target api ~home in
      if p >= 0 then api.run_on ~pcpu:p v
    end
  in
  let on_block (v : Vcpu.t) =
    (* The core already removed the blocked VCPU; fill the hole. *)
    decide ~pcpu:v.Vcpu.home
  in
  let on_vcrd_change _dom = () in
  let on_ple _v = () in
  { name = "credit"; on_slot; on_period; on_wake; on_block; on_vcrd_change;
    on_ple; migratable = (fun _ -> true); counters = (fun () -> []) }
