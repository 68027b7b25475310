(* Event-queue micro-benchmark: wheel vs heap backend throughput from
   the pending-set size a simulated host holds (10^2) up to 10^7,
   through the engine calls the simulator makes ([Engine.schedule_at],
   [cancel], [step]).

   Two steady-state workloads, each run against both backends with the
   same RNG seed so the op streams are identical:

   - "hold": classic timer-wheel hold pattern — fire the earliest
     event, schedule a replacement a random delay ahead. Pending count
     stays constant at N; measures the schedule+fire path.
   - "churn": schedule two events, cancel the first, fire one —
     the timer-reset pattern (timeslice/PLE/grace timers are armed and
     cancelled far more often than they fire); measures the cancel
     path.

   Delays are drawn from a mix of near (the cursor's open 2^16-cycle
   slot and level 1), mid (level 1/2) and far wheel distances.
   Throughput is reported in events per second (one schedule+fire or
   schedule+cancel round = one event). *)

open Sim_engine

type result = {
  bench : string;
  backend : string;
  pending : int;
  ops : int;
  sec : float;
  ops_per_sec : float;
}

let nothing () = ()

let delay rng =
  (* Delays span the wheel levels the way a steady-state pending set
     of ~10^6 timers actually does: mostly mid-range (level 1-2), a
     short-delay head and a far tail. All-short delays at this pending
     count would mean tens of events per cycle, which no simulated
     workload sustains. *)
  match Rng.int_in rng ~lo:0 ~hi:19 with
  | 0 | 1 | 2 | 3 -> 1 + Rng.int_in rng ~lo:0 ~hi:(1 lsl 18)
  | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 -> 1 + Rng.int_in rng ~lo:0 ~hi:(1 lsl 24)
  | 12 | 13 | 14 | 15 | 16 -> 1 + Rng.int_in rng ~lo:0 ~hi:(1 lsl 28)
  | _ -> 1 + Rng.int_in rng ~lo:0 ~hi:(1 lsl 33)

let preload e rng ~pending =
  for _ = 1 to pending do
    ignore (Engine.schedule_at e ~time:(delay rng) nothing)
  done

let run_bench bench kind ~pending ~ops =
  let e = Engine.create ~queue:kind () in
  let rng = Rng.create 7L in
  preload e rng ~pending;
  let t0 = Unix.gettimeofday () in
  (match bench with
  | "hold" ->
    for _ = 1 to ops do
      if Engine.step e then
        ignore (Engine.schedule_at e ~time:(Engine.now e + delay rng) nothing)
    done
  | "churn" ->
    for _ = 1 to ops do
      let h = Engine.schedule_at e ~time:(Engine.now e + delay rng) nothing in
      ignore (Engine.schedule_at e ~time:(Engine.now e + delay rng) nothing);
      Engine.cancel e h;
      ignore (Engine.step e)
    done
  | _ -> invalid_arg "Micro.run_bench");
  let sec = Unix.gettimeofday () -. t0 in
  {
    bench;
    backend = Engine.kind_name kind;
    pending;
    ops;
    sec;
    ops_per_sec = (if sec > 0. then float_of_int ops /. sec else 0.);
  }

let pendings = [ 100; 100_000; 1_000_000; 10_000_000 ]

let ops_for pending = if pending >= 10_000_000 then 500_000 else 1_000_000

let run () =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun pending ->
          List.map
            (fun kind -> run_bench bench kind ~pending ~ops:(ops_for pending))
            [ Engine.Wheel_queue; Engine.Heap_queue ])
        pendings)
    [ "hold"; "churn" ]

let print results =
  print_endline
    "engine event-queue throughput (steady state, events per second):";
  List.iter
    (fun r ->
      Printf.printf "  %-6s %-6s %8d pending  %10.0f ev/s\n" r.bench r.backend
        r.pending r.ops_per_sec)
    results;
  (* Headline ratio: wheel over heap on the hold pattern at 10^6. *)
  let rate bench backend =
    List.find_opt
      (fun r -> r.bench = bench && r.backend = backend && r.pending = 1_000_000)
      results
  in
  (match (rate "hold" "wheel", rate "hold" "heap") with
  | Some w, Some h when h.ops_per_sec > 0. ->
    Printf.printf "  wheel/heap at 10^6 pending: %.2fx\n"
      (w.ops_per_sec /. h.ops_per_sec)
  | _ -> ());
  print_newline ()

(* One "micro" section row of the bench record. *)
let to_json r =
  Sim_obs.Json.(
    Obj
      [
        ("bench", String r.bench); ("backend", String r.backend);
        ("pending", Int r.pending); ("ops", Int r.ops); ("sec", Float r.sec);
        ("ops_per_sec", Float r.ops_per_sec);
      ])

(* ----- conservative-PDES throughput: events/sec per member count and
   host size ------------------------------------------------------------

   Each PCPU of a big host owns [per-pcpu] self-rescheduling timer
   chains (the hold pattern above, one population per PCPU); chains
   live on the {!Fabric} member owning their PCPU, and roughly one
   firing in 64 (chosen by hash bits) mails a cross-member one-shot at
   >= lookahead ahead — the relocation/IPI traffic the conservative
   window is sized for. sim-jobs = 1 is the single-member reference
   (one engine whose windows degenerate to its own run-until
   loop); sim-jobs = N runs the same event population over N member
   engines.

   Each chain's delay stream is a pure hash of (PCPU, fire time) — no
   per-chain state — so the multiset of fire times is independent of
   the partition. The bench sums a commutative hash of every fire
   time per member; the total must agree between -j1 and -jN, and the
   bench fails on any mismatch. The lookahead derives from the 10 ms
   slot quantum (slot/16 ~ 625 us, >> the modeled IPI latency),
   matching how cross-member scheduler traffic is slot-granular. *)

type pdes_result = {
  p_backend : string;
  p_pcpus : int;
  p_jobs : int;  (* fabric member count: the --sim-jobs axis *)
  p_workers : int;  (* worker domains actually used *)
  p_pending : int;
  p_events : int;
  p_sec : float;
  p_events_per_sec : float;
  p_windows : int;
  p_cross : int;
  p_digest : int;
}

let pdes_lookahead =
  Sim_hw.Cpu_model.slot_cycles Sim_hw.Cpu_model.default / 16

(* Mix a fire time into the commutative digest. The per-event hash is
   a strong scramble; the combination is plain wrapping addition so
   the total is independent of execution and partition order. *)
let dg_mix time =
  let h = (time + 1) * 0x2545F4914F6CDD1 in
  (h lxor (h lsr 29)) land max_int

let run_pdes_once ~kind ~pcpus ~jobs () =
  let member_of p = p * jobs / pcpus in
  let la = pdes_lookahead in
  let per_pcpu = if pcpus >= 256 then 1024 else 2048 in
  let until = 64 * la in
  let engines = Array.init jobs (fun _ -> Engine.create ~queue:kind ()) in
  let fab = Fabric.create ~lookahead:la engines in
  (* Per-member digest accumulators: a member's events only ever run
     on the one domain draining it in a window. *)
  let dg = Array.make jobs 0 in
  let note m =
    dg.(m) <- (dg.(m) + dg_mix (Engine.now engines.(m))) land max_int
  in
  (* The delay stream is a pure function of (PCPU, fire time): an
     event firing at [time] on PCPU [p] reschedules at
     [time + g (p, time)]. The executed multiset of fire times is then
     fully determined by the initial population — independent of the
     partition (a chain's PCPU is its own property, not the member's) —
     so the digest must agree across member counts, and the harness
     needs no per-chain state at all (one shared closure per PCPU).
     Keying on the PCPU as well as the time keeps chains on distinct
     trajectories: a time-only hash would merge any two chains that
     ever collide, and merged chains reschedule into the same wheel
     slot — cache-hot inserts that flatter the single-queue baseline.
     Per-event bookkeeping is a handful of register ops; everything
     else an event does is queue work, which is precisely what
     partitioning divides. *)
  let mask = (1 lsl 24) - 1 in
  let mix v =
    let h = v * 0x3E3779B97F4A7C15 in
    let h = (h lxor (h lsr 30)) * 0x14D049BB133111EB in
    (h lxor (h lsr 27)) land max_int
  in
  for p = 0 to pcpus - 1 do
    let sp = member_of p in
    let e = engines.(sp) in
    let sdst = member_of ((p + (pcpus / 2)) mod pcpus) in
    let mailed () = note sdst in
    let rec act () =
      note sp;
      let time = Engine.now e in
      let m = mix ((time lsl 8) lor (p land 0xFF)) in
      if (m lsr 24) land 63 = 0 then
        Fabric.post fab ~src:sp ~dst:sdst
          ~time:(time + la + 1 + ((m lsr 30) land mask))
          mailed;
      ignore (Engine.schedule_at e ~time:(time + 1 + (m land mask)) act)
    in
    for k = 0 to per_pcpu - 1 do
      let key = (p * per_pcpu) + k in
      ignore
        (Engine.schedule_at e ~time:(1 + (mix (key lsl 8) land mask)) act)
    done
  done;
  let workers = Fabric.workers fab in
  (* Level the GC playing field between sweep points: without this,
     garbage from the previous point's setup charges its collection
     cost to whichever run happens to trip the major slice. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  Fabric.run ~workers ~until fab;
  let sec = Unix.gettimeofday () -. t0 in
  let events = Fabric.events_fired fab in
  {
    p_backend = Engine.kind_name kind;
    p_pcpus = pcpus;
    p_jobs = jobs;
    p_workers = workers;
    p_pending = pcpus * per_pcpu;
    p_events = events;
    p_sec = sec;
    p_events_per_sec = (if sec > 0. then float_of_int events /. sec else 0.);
    p_windows = Fabric.windows fab;
    p_cross = Fabric.cross_posts fab;
    p_digest = Array.fold_left (fun acc d -> (acc + d) land max_int) 0 dg;
  }

(* Best-of-N wall clock: the setup is deterministic (reps execute the
   identical event stream, checked via the digest), so the fastest rep
   is the least-interfered measurement — the standard defence against
   noisy-neighbour hosts in CI. Reps are organised as rounds over the
   whole sweep rather than consecutive runs of one point: interference
   lasting a minute then hits every point a little instead of
   swallowing all reps of whichever point it landed on, so one quiet
   round gives every row (and every ratio) its clean measurement. *)
let pdes_reps = 4

let pdes_sweep =
  [ (64, 1); (64, 4); (128, 1); (128, 2); (128, 4); (256, 1); (256, 4) ]

(* Returns the rows plus the digest verdict: within a host size, every
   member count must execute the identical event multiset. *)
let run_pdes_all ~kind () =
  let best = Array.make (List.length pdes_sweep) None in
  for _ = 1 to pdes_reps do
    List.iteri
      (fun i (pcpus, jobs) ->
        let r = run_pdes_once ~kind ~pcpus ~jobs () in
        match best.(i) with
        | None -> best.(i) <- Some r
        | Some b ->
          if r.p_digest <> b.p_digest then
            failwith "Micro.run_pdes_all: digest varies across identical reps";
          if r.p_events_per_sec > b.p_events_per_sec then best.(i) <- Some r)
      pdes_sweep
  done;
  let results = List.filter_map Fun.id (Array.to_list best) in
  let ok =
    List.for_all
      (fun r ->
        List.for_all
          (fun r' ->
            r'.p_pcpus <> r.p_pcpus
            || (r'.p_digest = r.p_digest && r'.p_events = r.p_events))
          results)
      results
  in
  (results, ok)

let pdes_ratio results ~pcpus ~jobs ~jobs_ref =
  let rate j =
    List.find_opt (fun r -> r.p_pcpus = pcpus && r.p_jobs = j) results
  in
  match (rate jobs, rate jobs_ref) with
  | Some a, Some b when b.p_events_per_sec > 0. ->
    Some (a.p_events_per_sec /. b.p_events_per_sec)
  | _ -> None

let print_pdes (results, ok) =
  print_endline
    "conservative PDES throughput (hold pattern on the fabric, events per \
     second):";
  List.iter
    (fun r ->
      Printf.printf
        "  %4d pcpus  -j%d (%d worker%s)  %8d pending  %10.0f ev/s  %5d \
         windows  %6d cross\n"
        r.p_pcpus r.p_jobs r.p_workers
        (if r.p_workers = 1 then "" else "s")
        r.p_pending r.p_events_per_sec r.p_windows r.p_cross)
    results;
  (match pdes_ratio results ~pcpus:128 ~jobs:4 ~jobs_ref:1 with
  | Some ratio -> Printf.printf "  -j4 / -j1 at 128 pcpus: %.2fx\n" ratio
  | None -> ());
  Printf.printf "  -j1-vs-jN fingerprint: %s\n"
    (if ok then "identical" else "MISMATCH");
  print_newline ()

(* A PDES sweep row, in the same "micro" section: pcpus and sim_jobs
   keep the sweep points distinct in `asman compare`. *)
let pdes_to_json r =
  Sim_obs.Json.(
    Obj
      [
        ("bench", String "pdes-hold"); ("backend", String r.p_backend);
        ("pcpus", Int r.p_pcpus); ("sim_jobs", Int r.p_jobs);
        ("workers", Int r.p_workers); ("pending", Int r.p_pending);
        ("ops", Int r.p_events); ("sec", Float r.p_sec);
        ("ops_per_sec", Float r.p_events_per_sec);
        ("windows", Int r.p_windows); ("cross_posts", Int r.p_cross);
        ("digest", String (Printf.sprintf "%x" r.p_digest));
      ])
