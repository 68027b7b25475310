open Sched_intf

(* Per-domain gang state on this host, built at the domain's first
   lookup: the coscheduling mutex stamp, the watchdog bookkeeping and
   the out-of-VM VCRD window (from the domain's first PLE). *)
type gang = {
  dom : Domain.t;
  mutable last_launch : int;  (** cycle of the latest launch *)
  watch : Watchdog.dom_state;
  mutable oov : Sim_learn.Window.t option;
}

(* [last_launch] of a domain never launched: far enough in the past
   that the per-instant mutex and [migratable]'s IPI horizon both pass
   at time 0, and [never + horizon] does not overflow. *)
let never = min_int

(* The lowest-numbered online PCPU whose run queue holds no VCPU of
   [domain_id]; [-1] when every one does. *)
let rec first_free_of (api : api) ~domain_id p =
  if p >= Array.length api.runqueues then -1
  else if
    api.pcpu_online p
    && not (Runqueue.has_domain api.runqueues.(p) ~domain_id)
  then p
  else first_free_of api ~domain_id (p + 1)

let make ?(oov = false) ?(ipi = true) ?(solidarity = true)
    ?(continuity = true) ?(llc_aware = false) ~name ~should_cosched
    (api : api) : t =
  let gangs : gang Sim_engine.Id_table.t = Sim_engine.Id_table.create 8 in
  (* Self-healing: when a watchdog is armed, a domain whose
     coscheduling launches repeatedly stall (IPIs lost to faults) is
     demoted — [cosched] goes false and every gang mechanism below
     falls back to plain Credit behavior until probation expires.
     Without one nothing writes a domain's watchdog state, so every
     domain shares one never-launched state. *)
  let wd =
    Option.map (fun p -> Watchdog.create ~metrics:api.metrics p) api.watchdog
  in
  let unwatched = Watchdog.fresh () in
  let gang_of (dom : Domain.t) =
    match Sim_engine.Id_table.find gangs dom.Domain.id with
    | g -> g
    | exception Not_found ->
      let watch = if Option.is_some wd then Watchdog.fresh () else unwatched in
      let g = { dom; last_launch = never; watch; oov = None } in
      Sim_engine.Id_table.replace gangs dom.Domain.id g;
      g
  in
  let gang_of_vcpu (v : Vcpu.t) =
    match Sim_engine.Id_table.find gangs v.Vcpu.domain_id with
    | g -> g
    | exception Not_found ->
      gang_of
        (List.find
           (fun (d : Domain.t) -> d.Domain.id = v.Vcpu.domain_id)
           (api.domains ()))
  in
  let engine = Sim_hw.Machine.engine api.machine in
  let trace = Sim_engine.Engine.trace engine in
  let emit_gang ev =
    if Sim_obs.Trace.on trace Sim_obs.Trace.Gang then
      Sim_obs.Trace.emit trace ~now:(api.now ()) ev
  in

  let demoted g = Watchdog.demoted g.watch ~now:(api.now ()) in
  let cosched g = should_cosched g.dom && not (demoted g) in

  (* A VCPU of a coscheduled domain must not be migrated onto a PCPU
     whose run queue already holds a sibling (Algorithm 4, line 3). *)
  let allowed (v : Vcpu.t) ~dst =
    (not (cosched (gang_of_vcpu v)))
    || not (Runqueue.has_domain api.runqueues.(dst) ~domain_id:v.Vcpu.domain_id)
  in

  (* Algorithm 3, lines 8-15: relocate a domain's Ready VCPUs so each
     sits in a different PCPU's run queue (counting PCPUs that are
     already running a sibling as taken). With [llc_aware], PCPUs that
     share a socket (and thus the last-level cache) with a sibling are
     preferred — coscheduling IPIs then stay on-socket and the gang
     shares its LLC, the architectural property §7 points at. *)
  let topology = Sim_hw.Machine.topology api.machine in
  let spread (dom : Domain.t) =
    let n = Array.length api.runqueues in
    (* Offline PCPUs count as taken: never a relocation target. *)
    let taken = Array.init n (fun p -> not (api.pcpu_online p)) in
    let anchor_socket = ref None in
    let note_socket p =
      if llc_aware && !anchor_socket = None then
        anchor_socket := Some (Sim_hw.Topology.socket_of topology p)
    in
    Array.iter
      (fun (v : Vcpu.t) ->
        match Vcpu.running_on v with
        | Some p ->
          taken.(p) <- true;
          note_socket p
        | None -> ())
      dom.Domain.vcpus;
    let preferred p =
      match !anchor_socket with
      | Some socket when llc_aware ->
        Sim_hw.Topology.socket_of topology p = socket
      | Some _ | None -> true
    in
    let better candidate incumbent =
      match incumbent with
      | -1 -> true
      | b ->
        let cp = preferred candidate and bp = preferred b in
        if cp <> bp then cp
        else
          Runqueue.length api.runqueues.(candidate)
          < Runqueue.length api.runqueues.(b)
    in
    let claim_or_move (v : Vcpu.t) =
      if Vcpu.is_ready v then begin
        if
          (not taken.(v.Vcpu.home))
          && ((not llc_aware) || preferred v.Vcpu.home)
        then begin
          taken.(v.Vcpu.home) <- true;
          note_socket v.Vcpu.home
        end
        else begin
          let best = ref (-1) in
          for p = 0 to n - 1 do
            if (not taken.(p)) && better p !best then best := p
          done;
          match !best with
          | -1 ->
            (* More VCPUs than PCPUs: keep the home claim if free. *)
            if not taken.(v.Vcpu.home) then taken.(v.Vcpu.home) <- true
          | p ->
            if p <> v.Vcpu.home then api.migrate v ~dst:p
            else ();
            taken.(p) <- true;
            note_socket p
        end
      end
    in
    Array.iter claim_or_move dom.Domain.vcpus
  in

  (* Some running VCPU of the domain, to relaunch a coschedule from. *)
  let running_leader (dom : Domain.t) =
    Array.fold_left
      (fun acc (v : Vcpu.t) ->
        match acc with
        | Some _ -> acc
        | None -> (
          match Vcpu.running_on v with Some p -> Some (p, v) | None -> None))
      None dom.Domain.vcpus
  in

  (* Coschedule the siblings of [leader], a VCPU of [g]'s domain
     (Algorithm 4, lines 5-7):
     IPI every PCPU holding a Ready sibling; the handler boosts the
     sibling and preempts the victim unless it is itself part of a
     coscheduled gang. With a watchdog armed, each launch (at most one
     tracked per domain at a time) counts its IPIs and is audited
     [ack_timeout] later by [arm_check]; IPI delivery doubles as the
     ack. [last_launch] is Algorithm 4's mutex: only one PCPU launches
     a domain's coscheduling IPIs at any given instant. [retry]
     relaunches bypass it and keep the in-flight retry budget instead
     of resetting it. *)
  let rec launch_cosched ?(retry = false) ~pcpu g (leader : Vcpu.t) =
    let dom = g.dom and s = g.watch in
    let now = api.now () in
    if ipi && (retry || g.last_launch <> now) then begin
      g.last_launch <- now;
      let track = Option.is_some wd && (retry || not s.Watchdog.check_pending) in
      let gen =
        if track then begin
          s.Watchdog.gen <- s.Watchdog.gen + 1;
          s.Watchdog.gen
        end
        else 0
      in
      let sent = ref 0 in
      let mutation_dropped = ref false in
      for i = 0 to Array.length dom.Domain.vcpus - 1 do
        let sib = dom.Domain.vcpus.(i) in
        if sib != leader && Vcpu.is_ready sib then begin
          let dst = sib.Vcpu.home in
          let dst =
            if dst <> pcpu then dst
            else begin
              (* Sibling queued behind the leader: relocate first. *)
              spread dom;
              sib.Vcpu.home
            end
          in
          if
            dst <> pcpu
            && not
                 (Mutation.enabled Mutation.Drop_gang_sibling
                 && not !mutation_dropped
                 && (mutation_dropped := true;
                     true))
          then begin
            incr sent;
            Sim_hw.Machine.send_ipi api.machine ~src:pcpu ~dst (fun () ->
                (match wd with
                | Some w when track && s.Watchdog.gen = gen ->
                  s.Watchdog.acks <- s.Watchdog.acks + 1;
                  Watchdog.note_ack w;
                  emit_gang
                    (Sim_obs.Trace.Gang_ack
                       { domain = dom.Domain.id; pcpu = dst })
                | _ -> ());
                if Vcpu.is_ready sib && cosched g then begin
                  sib.Vcpu.boosted <- true;
                  match api.current dst with
                  | None -> api.run_on ~pcpu:dst sib
                  | Some cur ->
                    if
                      cur.Vcpu.domain_id <> sib.Vcpu.domain_id
                      && not cur.Vcpu.boosted
                    then api.run_on ~pcpu:dst sib
                end)
          end
        end
      done;
      if !sent > 0 then
        emit_gang
          (Sim_obs.Trace.Gang_launch
             { domain = dom.Domain.id; pcpu; ipis = !sent; retry });
      match wd with
      | Some w when track && !sent > 0 ->
        (* IPI latency is strictly positive, so no ack can land before
           these counters are (re)armed. *)
        s.Watchdog.expected <- !sent;
        s.Watchdog.acks <- 0;
        if not retry then begin
          s.Watchdog.retries_left <- (Watchdog.params w).Watchdog.max_retries;
          s.Watchdog.backoff <- (Watchdog.params w).Watchdog.backoff_base
        end;
        s.Watchdog.check_pending <- true;
        Watchdog.note_launch w;
        arm_check w g
      | _ -> ()
    end

  and arm_check w g =
    let p = Watchdog.params w in
    let dom = g.dom and s = g.watch in
    ignore
      (Sim_engine.Engine.schedule_after engine ~delay:p.Watchdog.ack_timeout
         (fun () ->
           if s.Watchdog.acks >= s.Watchdog.expected then
             (* Strikes are cumulative since the last demotion (not
                reset on success): under sustained low-rate IPI loss
                the domain still reaches the threshold and falls back
                to Credit; a clean environment accrues none. *)
             s.Watchdog.check_pending <- false
           else begin
             Watchdog.note_timeout w;
             s.Watchdog.strikes <- s.Watchdog.strikes + 1;
             emit_gang
               (Sim_obs.Trace.Gang_timeout
                  { domain = dom.Domain.id; strikes = s.Watchdog.strikes });
             if s.Watchdog.strikes >= p.Watchdog.fail_threshold then begin
               (* Demote: the gang falls back to plain Credit until
                  probation ends, then coscheduling is re-attempted. *)
               s.Watchdog.demoted_until <- api.now () + p.Watchdog.probation;
               s.Watchdog.strikes <- 0;
               s.Watchdog.check_pending <- false;
               Watchdog.note_demotion w ~vm:dom.Domain.name;
               emit_gang
                 (Sim_obs.Trace.Gang_demote
                    { domain = dom.Domain.id;
                      until = s.Watchdog.demoted_until });
               Array.iter
                 (fun (v : Vcpu.t) -> v.Vcpu.boosted <- false)
                 dom.Domain.vcpus
             end
             else if s.Watchdog.retries_left > 0 then begin
               s.Watchdog.retries_left <- s.Watchdog.retries_left - 1;
               let delay = s.Watchdog.backoff in
               s.Watchdog.backoff <- s.Watchdog.backoff * 2;
               Watchdog.note_retry w;
               emit_gang
                 (Sim_obs.Trace.Gang_retry
                    { domain = dom.Domain.id; delay });
               ignore
                 (Sim_engine.Engine.schedule_after engine ~delay (fun () ->
                      if cosched g then begin
                        match running_leader dom with
                        | Some (p, v) -> launch_cosched ~retry:true ~pcpu:p g v
                        | None -> s.Watchdog.check_pending <- false
                      end
                      else s.Watchdog.check_pending <- false))
             end
             else s.Watchdog.check_pending <- false
           end))
  in

  let run ~pcpu (v : Vcpu.t) =
    api.run_on ~pcpu v;
    let g = gang_of_vcpu v in
    if cosched g then launch_cosched ~pcpu g v
  in

  (* Gang solidarity: while any sibling still holds entitled credit,
     the whole gang keeps running (out-of-credit members included), so
     the VM's share is consumed in long aligned bursts and the gang
     parks as a unit. Long-run fairness is preserved by the credit
     refill rate; overdraw is bounded by the VMM's credit floor. *)
  let gang_anchor (dom : Domain.t) =
    solidarity
    && Array.exists
         (fun (v : Vcpu.t) ->
           v.Vcpu.credit >= 0 && (Vcpu.is_running v || Vcpu.is_ready v))
         dom.Domain.vcpus
  in
  (* Algorithm 4 selection for one PCPU. *)
  let decide ~pcpu =
    let rq = api.runqueues.(pcpu) in
    match Runqueue.head rq with
    | None -> begin
      match Sched_common.steal api ~dst:pcpu ~under_only:true ~allowed with
      | Some v -> run ~pcpu v
      | None -> begin
        if api.work_conserving then
          match Sched_common.steal api ~dst:pcpu ~under_only:false ~allowed with
          | Some v -> run ~pcpu v
          | None -> ()
      end
    end
    | Some head ->
      let solidarity =
        head.Vcpu.credit < 0
        &&
        let g = gang_of_vcpu head in
        cosched g && gang_anchor g.dom
      in
      if head.Vcpu.credit >= 0 || head.Vcpu.boosted || solidarity then
        run ~pcpu head
      else begin
        (* Head used up its credit: migrate in a remote VCPU with
           maximal credit (Algorithm 4, lines 2-4); in the capped mode
           an out-of-credit VCPU stays parked until refilled. *)
        match Sched_common.steal api ~dst:pcpu ~under_only:true ~allowed with
        | Some v -> run ~pcpu v
        | None -> if api.work_conserving then run ~pcpu head
      end
  in
  let on_slot ~pcpu =
    (* Gang continuity: a running member of an anchored coscheduled
       domain keeps the PCPU through its slice boundary, so the gang's
       aligned burst is not chopped at per-PCPU slice edges. The burst
       ends when the anchor (entitled credit) is exhausted. *)
    let keep =
      continuity
      &&
      match api.current pcpu with
      | Some cur ->
        let g = gang_of_vcpu cur in
        if cosched g && gang_anchor g.dom then begin
          launch_cosched ~pcpu g cur;
          true
        end
        else false
      | None -> false
    in
    if not keep then begin
      Sched_common.requeue_current api ~pcpu;
      decide ~pcpu
    end
  in
  let on_period () =
    Sched_common.assign_credit api;
    List.iter (fun d -> if cosched (gang_of d) then spread d) (api.domains ());
    Sched_common.preempt_parked api ~refill:(fun ~pcpu -> decide ~pcpu)
  in
  let on_wake (v : Vcpu.t) =
    (* Respect the distinct-PCPU invariant for coscheduled domains. *)
    let home =
      if
        cosched (gang_of_vcpu v)
        && Runqueue.has_domain api.runqueues.(v.Vcpu.home)
             ~domain_id:v.Vcpu.domain_id
      then begin
        match first_free_of api ~domain_id:v.Vcpu.domain_id 0 with
        | -1 -> v.Vcpu.home
        | p -> p
      end
      else v.Vcpu.home
    in
    Runqueue.insert api.runqueues.(home) v;
    (* Xen fast-tracks only UNDER wakeups (BOOST); an OVER VCPU waits
       for its queue turn. *)
    if Vcpu.eligible v && v.Vcpu.credit >= 0 then begin
      let p = Sched_common.idle_target api ~home in
      if p >= 0 then run ~pcpu:p v
    end
  in
  let on_block (v : Vcpu.t) = decide ~pcpu:v.Vcpu.home in
  let on_vcrd_change (dom : Domain.t) =
    match dom.Domain.vcrd with
    | Domain.High ->
      let g = gang_of dom in
      if not (demoted g) then spread dom;
      (* Start coscheduling right away from the PCPU running one of
         the domain's VCPUs (or at the next boundary otherwise). *)
      (match running_leader dom with
      | Some (p, v) -> if cosched g then launch_cosched ~pcpu:p g v
      | None -> ())
    | Domain.Low ->
      Array.iter (fun (v : Vcpu.t) -> v.Vcpu.boosted <- false) dom.Domain.vcpus
  in
  (* Out-of-VM VCRD detection (the paper's stated future work): the
     hardware pause-loop-exit signal tells the VMM that a VCPU burned
     a full PLE window busy-spinning — no guest modification needed.
     Each PLE is an adjusting event for the same coscheduling window
     the in-VM Monitoring Module runs, with its own per-domain
     estimator; the scheduler drives the domain's VCRD itself, so the
     changes bypass the guest channel (and its fault filter) but are
     traced like the guest's reports. *)
  let slot_cycles =
    Sim_hw.Cpu_model.slot_cycles (Sim_hw.Machine.cpu_model api.machine)
  in
  let set_vcrd (dom : Domain.t) v () =
    let now = api.now () in
    if Domain.set_vcrd dom ~now v then begin
      if Sim_obs.Trace.on trace Sim_obs.Trace.Vcrd then
        Sim_obs.Trace.emit trace ~now
          (Sim_obs.Trace.Vcrd_change
             { domain = dom.Domain.id; high = dom.Domain.vcrd = Domain.High });
      on_vcrd_change dom
    end
  in
  let oov_window g =
    match g.oov with
    | Some w -> w
    | None ->
      let dom = g.dom in
      let rng = Sim_engine.Rng.split (Sim_engine.Engine.rng engine) in
      let w =
        Sim_learn.Window.create
          (Sim_learn.Estimator.default_params ~slot_cycles)
          rng ~engine ~vcpus:(Domain.vcpu_count dom)
          ~online:(fun () -> api.domain_online dom)
          ~high:(set_vcrd dom Domain.High) ~low:(set_vcrd dom Domain.Low)
      in
      g.oov <- Some w;
      w
  in
  let on_ple (v : Vcpu.t) =
    if oov then Sim_learn.Window.adjusting_event (oov_window (gang_of_vcpu v))
  in
  let counters () =
    match wd with Some w -> Watchdog.counter_list w | None -> []
  in
  (* Quiescence gate for whole-domain migration off this host (the
     decoupled-VMM steal protocol). A domain with a pending watchdog
     audit, an armed out-of-VM VCRD window, or a coscheduling launch
     whose IPIs may still be in flight has scheduler state (or
     scheduled engine events capturing its VCPUs) that would dangle
     if it left now. IPI flight time is bounded by the cross-socket
     latency, so a launch is definitely drained once that horizon has
     passed — exact only while the IPI fault filter is off, which the
     decoupled mode guarantees. Boost flags are *not* a blocker: they
     are plain per-VCPU priority state that travels with the domain,
     is consumed by runqueue picks on the new host and cleared by its
     [on_vcrd_change] when the guest lowers VCRD. *)
  let ipi_horizon =
    2 * (Sim_hw.Machine.cpu_model api.machine).Sim_hw.Cpu_model
        .ipi_latency_cycles
  in
  let migratable dom =
    let g = gang_of dom in
    (not g.watch.Watchdog.check_pending)
    && (match g.oov with
       | Some w -> not (Sim_learn.Window.armed w)
       | None -> true)
    && api.now () > g.last_launch + ipi_horizon
  in
  { name; on_slot; on_period; on_wake; on_block; on_vcrd_change; on_ple;
    migratable; counters }

let make_asman api =
  make ~name:"asman"
    ~should_cosched:(fun d -> d.Domain.vcrd = Domain.High)
    api

let make_static api =
  make ~name:"cosched-static" ~should_cosched:(fun d -> d.Domain.concurrent_type) api

let make_oov api =
  make ~oov:true ~name:"asman-oov"
    ~should_cosched:(fun d -> d.Domain.vcrd = Domain.High)
    api
