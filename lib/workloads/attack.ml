open Sim_guest

(* All three attacks are pure compute/sleep programs — fully
   deterministic, no random chunks — so a given scenario seed always
   produces the same interleaving. Durations are derived from the
   host's accounting-tick interval ([slot_cycles]); the programs
   restart forever.

   The self-alignment trick shared by all of them: on a busy host a
   waking attacker sits in the runqueue until its PCPU's next
   slice-boundary reschedule, and reschedules coincide with credit
   ticks (the slot handler debits the *previous* occupant, then
   dispatches). A burst started at a reschedule therefore opens a full
   tick-free slot; blocking before the slot closes escapes the sampled
   debit entirely. The [lead] sleep skips the only misaligned dispatch
   — the scenario's t=0 start, which lands mid-slot relative to the
   staggered tick phase — so even the first real burst is aligned.

   Each attack therefore runs at most one aligned burst per slice.
   With a burst of nearly one slot that is slot/slice of the machine —
   far beyond a low-weight VM's entitlement under sampled accounting
   (never billed, credit pegged at the cap, wins every reschedule),
   and automatically contained under precise accounting (every burst
   is billed span-exactly, so the attacker goes over-credit and waits
   out its debt like any honest VM). *)

let lead slot_cycles = slot_cycles * 3 / 5

(* Long enough that no measurement window ever exhausts it; the
   steady-state loop must live inside one program round so the lead
   sleep applies once, not once per thread restart. *)
let steady_rounds = 1_000_000

let attack_workload ~name ~threads ~ops =
  {
    Workload.name;
    kind = Workload.Throughput;
    threads =
      List.init threads (fun i ->
          { Workload.affinity = i; program = Program.make ops; restart = true });
    barriers = [];
    semaphores = [];
  }

let dodge_burst slot_cycles = slot_cycles * 19 / 20
let dodge_sleep slot_cycles = slot_cycles / 5

let tick_dodge ?(threads = 1) ~slot_cycles () =
  if slot_cycles < 32 then invalid_arg "Attack.tick_dodge: slot_cycles";
  let body =
    [
      Program.Compute (dodge_burst slot_cycles);
      Program.Sleep (dodge_sleep slot_cycles);
      Program.Mark;
    ]
  in
  attack_workload ~name:"attack-dodge" ~threads
    ~ops:
      [
        Program.Sleep (lead slot_cycles); Program.Repeat (steady_rounds, body);
      ]

let steal_burst slot_cycles = slot_cycles / 2
let steal_sleep slot_cycles = slot_cycles / 5

let cycle_steal ?(threads = 1) ~slot_cycles () =
  if slot_cycles < 32 then invalid_arg "Attack.cycle_steal: slot_cycles";
  let body =
    [
      Program.Repeat
        ( 4,
          [
            Program.Compute (steal_burst slot_cycles);
            Program.Sleep (steal_sleep slot_cycles);
          ] );
      Program.Mark;
    ]
  in
  attack_workload ~name:"attack-steal" ~threads
    ~ops:
      [
        Program.Sleep (lead slot_cycles); Program.Repeat (steady_rounds, body);
      ]

let launder_burst slot_cycles = slot_cycles * 4 / 5
let launder_sleep slot_cycles = slot_cycles * 2 / 5
let launder_phase slot_cycles = slot_cycles / 2

let launder_half ?(threads = 1) ~slot_cycles ~phased () =
  if slot_cycles < 32 then invalid_arg "Attack.launder_half: slot_cycles";
  let body =
    [
      Program.Compute (launder_burst slot_cycles);
      Program.Sleep (launder_sleep slot_cycles);
      Program.Mark;
    ]
  in
  let first_sleep =
    lead slot_cycles + if phased then launder_phase slot_cycles else 0
  in
  attack_workload
    ~name:(if phased then "attack-launder-b" else "attack-launder-a")
    ~threads
    ~ops:[ Program.Sleep first_sleep; Program.Repeat (steady_rounds, body) ]

let is_attack (w : Workload.t) =
  match w.Workload.name with
  | "attack-dodge" | "attack-steal" | "attack-launder-a" | "attack-launder-b" ->
    true
  | _ -> false
