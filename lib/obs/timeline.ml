(* Per-PCPU scheduling timeline derived from a trace: for each PCPU a
   gantt row of which VCPU ran when (gaps = idle/stall). Feeds the LHP
   classifier, which needs "was VCPU v descheduled during [a,b]?". *)

type segment = { pcpu : int; vcpu : int; domain : int; start : int; stop : int }

type t = { pcpus : int; rows : segment list array (* per PCPU, time order *) }

let of_entries ?stop_at ~pcpus entries =
  let rows = Array.make (max pcpus 1) [] in
  let running = Array.make (max pcpus 1) None in
  let last_t = ref 0 in
  let close p ~until =
    match running.(p) with
    | None -> ()
    | Some (vcpu, domain, since) ->
      running.(p) <- None;
      if until > since then
        rows.(p) <- { pcpu = p; vcpu; domain; start = since; stop = until }
                    :: rows.(p)
  in
  List.iter
    (fun { Trace.at; ev } ->
      last_t := max !last_t at;
      match ev with
      | Trace.Sched_switch { pcpu; vcpu; domain } ->
        if pcpu >= 0 && pcpu < Array.length running then begin
          close pcpu ~until:at;
          running.(pcpu) <- Some (vcpu, domain, at)
        end
      | Trace.Sched_idle { pcpu } | Trace.Sched_block { pcpu; _ } ->
        if pcpu >= 0 && pcpu < Array.length running then close pcpu ~until:at
      | _ -> ())
    entries;
  let horizon = match stop_at with Some s -> s | None -> !last_t in
  for p = 0 to Array.length running - 1 do
    close p ~until:(max horizon !last_t)
  done;
  Array.iteri (fun p segs -> rows.(p) <- List.rev segs) rows;
  { pcpus = max pcpus 1; rows }

let segments t =
  Array.to_list t.rows |> List.concat
  |> List.sort (fun a b ->
         match compare a.start b.start with
         | 0 -> compare a.pcpu b.pcpu
         | c -> c)

let running_intervals t ~vcpu =
  segments t
  |> List.filter_map (fun s ->
         if s.vcpu = vcpu then Some (s.start, s.stop) else None)

(* Cycles in [from_, until] during which [vcpu] was NOT on any PCPU.
   Intervals are disjoint (a VCPU runs on one PCPU at a time), so the
   descheduled time is the window minus the summed overlaps. *)
let descheduled_in t ~vcpu ~from_ ~until =
  if until <= from_ then 0
  else
    let on_cpu =
      List.fold_left
        (fun acc (a, b) ->
          let lo = max a from_ and hi = min b until in
          if hi > lo then acc + (hi - lo) else acc)
        0
        (running_intervals t ~vcpu)
    in
    max 0 (until - from_ - on_cpu)
