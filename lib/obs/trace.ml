(* Typed, timestamped event sink over a bounded Ring. Every payload
   is integers only so this library depends on nothing and every
   subsystem (engine, hw, vmm, guest, faults) can emit into it. *)

type category =
  | Sched
  | Credit
  | Vcrd
  | Gang
  | Ipi
  | Spin
  | Fault
  | Invariant

let cat_bit = function
  | Sched -> 1
  | Credit -> 2
  | Vcrd -> 4
  | Gang -> 8
  | Ipi -> 16
  | Spin -> 32
  | Fault -> 64
  | Invariant -> 128

let all_mask = 255

let cat_name = function
  | Sched -> "sched"
  | Credit -> "credit"
  | Vcrd -> "vcrd"
  | Gang -> "gang"
  | Ipi -> "ipi"
  | Spin -> "spin"
  | Fault -> "fault"
  | Invariant -> "invariant"

let categories = [ Sched; Credit; Vcrd; Gang; Ipi; Spin; Fault; Invariant ]

let mask_of_string s =
  if String.trim s = "all" then Ok all_mask
  else
    let parts =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    if parts = [] then Error "empty category list"
    else
      List.fold_left
        (fun acc p ->
          match acc with
          | Error _ as e -> e
          | Ok m -> (
            match List.find_opt (fun c -> cat_name c = p) categories with
            | Some c -> Ok (m lor cat_bit c)
            | None -> Error (Printf.sprintf "unknown trace category %S" p)))
        (Ok 0) parts

type event =
  | Sched_switch of { pcpu : int; vcpu : int; domain : int }
  | Sched_idle of { pcpu : int }
  | Sched_block of { pcpu : int; vcpu : int; domain : int }
  | Credit_account of { vcpu : int; domain : int; credit : int; burned : int }
  | Vcrd_change of { domain : int; high : bool }
  | Gang_launch of { domain : int; pcpu : int; ipis : int; retry : bool }
  | Gang_ack of { domain : int; pcpu : int }
  | Gang_timeout of { domain : int; strikes : int }
  | Gang_retry of { domain : int; delay : int }
  | Gang_demote of { domain : int; until : int }
  | Ipi_sent of { src : int; dst : int; cross : bool }
  | Spin_overthreshold of {
      domain : int;
      vcpu : int;
      lock_id : int;
      wait : int;
      holder : int;  (** holder VCPU id at wait begin; -1 = unknown *)
    }
  | Fault_injected of { kind : int; pcpu : int; info : int }
  | Invariant_violation of { domain : int }
  | Ple_exit of { vcpu : int; domain : int }

(* Fault kind codes for [Fault_injected.kind]; the injector maps its
   variant onto these so obs stays dependency-free. *)
let fault_ipi_dropped = 0
let fault_ipi_delayed = 1
let fault_tick_suppressed = 2
let fault_vcrd_dropped = 3
let fault_vcrd_corrupted = 4
let fault_pcpu_stall = 5
let fault_pcpu_offline = 6
let fault_pcpu_restore = 7

let fault_kind_name = function
  | 0 -> "ipi_dropped"
  | 1 -> "ipi_delayed"
  | 2 -> "tick_suppressed"
  | 3 -> "vcrd_dropped"
  | 4 -> "vcrd_corrupted"
  | 5 -> "pcpu_stall"
  | 6 -> "pcpu_offline"
  | 7 -> "pcpu_restore"
  | _ -> "fault"

let category_of = function
  | Sched_switch _ | Sched_idle _ | Sched_block _ -> Sched
  | Credit_account _ -> Credit
  | Vcrd_change _ -> Vcrd
  | Gang_launch _ | Gang_ack _ | Gang_timeout _ | Gang_retry _ | Gang_demote _
    ->
    Gang
  | Ipi_sent _ -> Ipi
  | Spin_overthreshold _ | Ple_exit _ -> Spin
  | Fault_injected _ -> Fault
  | Invariant_violation _ -> Invariant

type entry = { at : int; ev : event }

type t = { mutable mask : int; mutable ring : entry Ring.t }

let default_cap = 1_000_000

let create () = { mask = 0; ring = Ring.create ~cap:0 }

let enable ?(cap = default_cap) t ~mask =
  t.mask <- mask land all_mask;
  if Ring.capacity t.ring <> cap then t.ring <- Ring.create ~cap

let disable t = t.mask <- 0

let mask t = t.mask

(* The hot-path guard: call sites do
     if Trace.on tr Cat then Trace.emit tr ~now ev
   so with tracing off the cost is one load + mask + branch and the
   event payload is never allocated. *)
let on t cat = t.mask land cat_bit cat <> 0

let emit t ~now ev = Ring.push t.ring { at = now; ev }

let entries t = Ring.to_list t.ring

let length t = Ring.length t.ring

let dropped t = Ring.dropped t.ring

let clear t = Ring.clear t.ring

(* ----- rendering helpers shared by the exporters ----- *)

let event_name = function
  | Sched_switch _ -> "sched_switch"
  | Sched_idle _ -> "sched_idle"
  | Sched_block _ -> "sched_block"
  | Credit_account _ -> "credit_account"
  | Vcrd_change _ -> "vcrd_change"
  | Gang_launch _ -> "gang_launch"
  | Gang_ack _ -> "gang_ack"
  | Gang_timeout _ -> "gang_timeout"
  | Gang_retry _ -> "gang_retry"
  | Gang_demote _ -> "gang_demote"
  | Ipi_sent _ -> "ipi_sent"
  | Spin_overthreshold _ -> "spin_overthreshold"
  | Fault_injected _ -> "fault_injected"
  | Invariant_violation _ -> "invariant_violation"
  | Ple_exit _ -> "ple_exit"

(* (field, value) pairs, stable order, for the Chrome export's args. *)
let event_fields = function
  | Sched_switch { pcpu; vcpu; domain } ->
    [ ("pcpu", pcpu); ("vcpu", vcpu); ("domain", domain) ]
  | Sched_idle { pcpu } -> [ ("pcpu", pcpu) ]
  | Sched_block { pcpu; vcpu; domain } ->
    [ ("pcpu", pcpu); ("vcpu", vcpu); ("domain", domain) ]
  | Credit_account { vcpu; domain; credit; burned } ->
    [ ("vcpu", vcpu); ("domain", domain); ("credit", credit);
      ("burned", burned) ]
  | Vcrd_change { domain; high } ->
    [ ("domain", domain); ("high", if high then 1 else 0) ]
  | Gang_launch { domain; pcpu; ipis; retry } ->
    [ ("domain", domain); ("pcpu", pcpu); ("ipis", ipis);
      ("retry", if retry then 1 else 0) ]
  | Gang_ack { domain; pcpu } -> [ ("domain", domain); ("pcpu", pcpu) ]
  | Gang_timeout { domain; strikes } ->
    [ ("domain", domain); ("strikes", strikes) ]
  | Gang_retry { domain; delay } -> [ ("domain", domain); ("delay", delay) ]
  | Gang_demote { domain; until } -> [ ("domain", domain); ("until", until) ]
  | Ipi_sent { src; dst; cross } ->
    [ ("src", src); ("dst", dst); ("cross", if cross then 1 else 0) ]
  | Spin_overthreshold { domain; vcpu; lock_id; wait; holder } ->
    [ ("domain", domain); ("vcpu", vcpu); ("lock_id", lock_id);
      ("wait", wait); ("holder", holder) ]
  | Fault_injected { kind; pcpu; info } ->
    [ ("kind", kind); ("pcpu", pcpu); ("info", info) ]
  | Invariant_violation { domain } -> [ ("domain", domain) ]
  | Ple_exit { vcpu; domain } -> [ ("vcpu", vcpu); ("domain", domain) ]

(* ----- Chrome trace_event JSON -----

   One pid per scenario; tid = pcpu index for PCPU tracks and
   [vm_tid_base + domain] for per-VM tracks. PCPU occupancy is
   reconstructed into "X" complete events from
   Sched_switch/Sched_idle/Sched_block; everything else is an "i"
   instant on the owning track. ts is microseconds (cycles / freq *
   1e6) as the format requires. *)

let vm_tid_base = 100

let us_of ~freq_hz cycles = float_of_int cycles /. float_of_int freq_hz *. 1e6

(* Names (VM names, scenario labels) go through Json.escape; the
   export streams into one buffer rather than building a Json.t, as a
   scenario's trace holds up to 10^6 events. *)
let buf_add_meta buf ~pid ~tid name =
  Printf.bprintf buf
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
     \"args\":{\"name\":\"%a\"}}"
    pid tid Json.escape name

let buf_add_complete buf ~pid ~tid ~name ~ts ~dur ~args =
  Printf.bprintf buf
    "{\"name\":\"%a\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\
     \"dur\":%.3f%s}"
    Json.escape name pid tid ts dur args

let buf_add_instant buf ~pid ~tid ~name ~ts ~args =
  Printf.bprintf buf
    "{\"name\":\"%a\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\
     \"ts\":%.3f%s}"
    Json.escape name pid tid ts args

let args_json fields =
  match fields with
  | [] -> ""
  | _ ->
    ",\"args\":{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) fields)
    ^ "}"

(* Append the trace_event objects for [t] into [buf] (comma-separated,
   no surrounding brackets) so multi-scenario exports can concatenate
   tracks into a single traceEvents array. *)
let chrome_events_into buf ?(pid = 1) ?(process_name = "asman")
    ?(vm_names = []) ~freq_hz ~pcpus t =
  let first = ref (Buffer.length buf = 0) in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  sep ();
  Printf.bprintf buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\
     \"%a\"}}"
    pid Json.escape process_name;
  for p = 0 to pcpus - 1 do
    sep ();
    buf_add_meta buf ~pid ~tid:p (Printf.sprintf "pcpu %d" p)
  done;
  let vm_name d =
    match List.assoc_opt d vm_names with
    | Some n -> n
    | None -> Printf.sprintf "dom%d" d
  in
  let doms =
    List.sort_uniq compare
      (List.map fst vm_names
      @ Ring.fold t.ring ~init:[] ~f:(fun acc { ev; _ } ->
            match ev with
            | Sched_switch { domain; _ }
            | Sched_block { domain; _ }
            | Vcrd_change { domain; _ }
            | Gang_launch { domain; _ }
            | Spin_overthreshold { domain; _ } ->
              domain :: acc
            | _ -> acc))
  in
  List.iter
    (fun d ->
      sep ();
      buf_add_meta buf ~pid ~tid:(vm_tid_base + d)
        (Printf.sprintf "vm %s" (vm_name d)))
    doms;
  (* Open slice per PCPU: what ran there since when. *)
  let running = Array.make (max pcpus 1) None in
  let close_slice p ~until =
    match if p < Array.length running then running.(p) else None with
    | None -> ()
    | Some (vcpu, domain, since) ->
      running.(p) <- None;
      sep ();
      buf_add_complete buf ~pid ~tid:p
        ~name:(Printf.sprintf "%s/v%d" (vm_name domain) vcpu)
        ~ts:(us_of ~freq_hz since)
        ~dur:(us_of ~freq_hz (until - since))
        ~args:(args_json [ ("vcpu", vcpu); ("domain", domain) ])
  in
  let last_t = ref 0 in
  Ring.iter t.ring (fun { at; ev } ->
      last_t := max !last_t at;
      let instant ~tid =
        sep ();
        buf_add_instant buf ~pid ~tid ~name:(event_name ev)
          ~ts:(us_of ~freq_hz at)
          ~args:(args_json (event_fields ev))
      in
      match ev with
      | Sched_switch { pcpu; vcpu; domain } ->
        close_slice pcpu ~until:at;
        if pcpu >= 0 && pcpu < Array.length running then
          running.(pcpu) <- Some (vcpu, domain, at)
      | Sched_idle { pcpu } | Sched_block { pcpu; _ } ->
        close_slice pcpu ~until:at
      | Credit_account { domain; _ }
      | Vcrd_change { domain; _ }
      | Spin_overthreshold { domain; _ }
      | Invariant_violation { domain }
      | Ple_exit { domain; _ }
      | Gang_timeout { domain; _ }
      | Gang_retry { domain; _ }
      | Gang_demote { domain; _ } ->
        instant ~tid:(vm_tid_base + domain)
      | Gang_launch { pcpu; _ } | Gang_ack { pcpu; _ } -> instant ~tid:pcpu
      | Ipi_sent { src; _ } -> instant ~tid:src
      | Fault_injected { pcpu; _ } -> instant ~tid:(max pcpu 0));
  for p = 0 to pcpus - 1 do
    close_slice p ~until:!last_t
  done
