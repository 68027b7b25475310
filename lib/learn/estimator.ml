type params = {
  learner : Roth_erev.params;
  candidates_cycles : int array;
  delta_cycles : int;
  ratio_cap : float;
}

let default_candidates ~slot_cycles =
  [|
    slot_cycles / 2;
    slot_cycles;
    slot_cycles * 2;
    slot_cycles * 4;
    slot_cycles * 8;
    slot_cycles * 16;
  |]

let default_params ~slot_cycles =
  {
    learner = Roth_erev.default_params;
    candidates_cycles = default_candidates ~slot_cycles;
    delta_cycles = 8 * slot_cycles;
    ratio_cap = 1.2;
  }

let validate_params p =
  match Roth_erev.validate_params p.learner with
  | Error _ as e -> e
  | Ok () ->
    if Array.length p.candidates_cycles = 0 then Error "no candidates"
    else if Array.exists (fun c -> c <= 0) p.candidates_cycles then
      Error "candidates must be positive"
    else if p.delta_cycles < 0 then Error "delta must be non-negative"
    else if p.ratio_cap <= 0. then Error "ratio_cap must be positive"
    else Ok ()

type t = {
  params : params;
  learner : Roth_erev.t;
  rng : Sim_engine.Rng.t;
  longest : int;  (** the longest candidate *)
  mutable events : int;
  mutable last_time : int;  (** time of the previous adjusting event *)
  mutable last_index : int;  (** candidate chosen at the previous event *)
  mutable prev_slack : int option;  (** z_{i-1} - x_{i-1} *)
}

let create params rng =
  (match validate_params params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Estimator.create: " ^ msg));
  (* The learner works on candidates normalized by their mean so that
     propensities are O(1) — the same scale as Algorithm 2's
     reinforcements (which are at most [ratio_cap * (1 - e)]). Feeding
     raw cycle counts (~1e8) would drown the reinforcements in the
     q-proportional experimentation terms and freeze learning. *)
  let n = Array.length params.candidates_cycles in
  let mean =
    Array.fold_left (fun acc c -> acc +. float_of_int c) 0. params.candidates_cycles
    /. float_of_int n
  in
  let candidates =
    Array.map (fun c -> float_of_int c /. mean) params.candidates_cycles
  in
  {
    params;
    learner = Roth_erev.create params.learner ~candidates;
    rng;
    longest = Array.fold_left Int.max min_int params.candidates_cycles;
    events = 0;
    last_time = 0;
    last_index = -1;
    prev_slack = None;
  }

let events_seen t = t.events

let candidates t = Array.copy t.params.candidates_cycles

let propensities t = Roth_erev.propensities t.learner

let last_estimate t =
  if t.last_index < 0 then None
  else Some t.params.candidates_cycles.(t.last_index)

(* Algorithm 2: the reinforcement U(x, x_i, i, N, e). *)
let reinforcement t ~slack ~prev_slack j =
  let p = t.params in
  let e = p.learner.Roth_erev.experimentation in
  let n = Roth_erev.n t.learner in
  let spread =
    if n <= 1 then 0.
    else Roth_erev.propensity t.learner j *. e /. float_of_int (n - 1)
  in
  if slack <= p.delta_cycles then begin
    (* Under-coscheduling: every strictly longer duration gets 1 - e.
       Boundary case (unspecified by the paper): when the chosen
       duration is already the longest candidate there is nothing
       longer to reinforce, so reinforce the longest itself —
       otherwise every propensity decays to the floor and selection
       snaps back to the shortest candidate. *)
    let x_i = p.candidates_cycles.(t.last_index) in
    if
      p.candidates_cycles.(j) > x_i
      || (j = t.last_index && x_i = t.longest)
    then 1. -. e
    else spread
  end
  else if j = t.last_index then begin
    let denom = float_of_int (Int.max 1 prev_slack) in
    let ratio = float_of_int slack /. denom in
    let ratio = Float.min p.ratio_cap (Float.max 0. ratio) in
    ratio *. (1. -. e)
  end
  else spread

let on_adjusting_event t ~now =
  if t.events > 0 && now < t.last_time then
    invalid_arg "Estimator.on_adjusting_event: time went backwards";
  let index =
    if t.events < 2 then
      (* First two events: probabilistic exploration (Algorithm 1). *)
      Roth_erev.select_probabilistic t.learner t.rng
    else begin
      let z = now - t.last_time in
      let x = t.params.candidates_cycles.(t.last_index) in
      let slack = z - x in
      let prev_slack = match t.prev_slack with Some s -> s | None -> 1 in
      Roth_erev.update t.learner
        ~reinforcement:(reinforcement t ~slack ~prev_slack);
      t.prev_slack <- Some slack;
      Roth_erev.select_best t.learner
    end
  in
  if t.events = 1 then begin
    (* After the second event we can compute the first slack for use as
       z_{i-1} - x_{i-1} in the next update. *)
    let z = now - t.last_time in
    let x = t.params.candidates_cycles.(t.last_index) in
    t.prev_slack <- Some (z - x)
  end;
  t.events <- t.events + 1;
  t.last_time <- now;
  t.last_index <- index;
  t.params.candidates_cycles.(index)
