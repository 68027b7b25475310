type params = {
  recency : float;
  experimentation : float;
  initial_scale : float;
  floor : float;
}

let default_params =
  { recency = 0.1; experimentation = 0.2; initial_scale = 1.0; floor = 1e-9 }

let validate_params p =
  if p.recency < 0. || p.recency >= 1. then Error "recency must be in [0, 1)"
  else if p.experimentation < 0. || p.experimentation >= 1. then
    Error "experimentation must be in [0, 1)"
  else if p.initial_scale <= 0. then Error "initial_scale must be positive"
  else if p.floor <= 0. then Error "floor must be positive"
  else Ok ()

type t = { params : params; candidates : float array; q : float array }

let create params ~candidates =
  (match validate_params params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Roth_erev.create: " ^ msg));
  let n = Array.length candidates in
  if n = 0 then invalid_arg "Roth_erev.create: no candidates";
  let mean = Array.fold_left ( +. ) 0. candidates /. float_of_int n in
  let q0 = max params.floor (params.initial_scale *. mean /. float_of_int n) in
  { params; candidates = Array.copy candidates; q = Array.make n q0 }

let params t = t.params

let n t = Array.length t.candidates

let propensity t j = t.q.(j)

let propensities t = Array.copy t.q

let select_best t =
  let best = ref 0 in
  for j = 1 to Array.length t.q - 1 do
    if t.q.(j) > t.q.(!best) then best := j
  done;
  !best

let select_probabilistic t rng =
  let total = Array.fold_left ( +. ) 0. t.q in
  let target = Sim_engine.Rng.float rng total in
  let acc = ref 0. in
  let chosen = ref (Array.length t.q - 1) in
  (try
     for j = 0 to Array.length t.q - 1 do
       acc := !acc +. t.q.(j);
       if !acc > target then begin
         chosen := j;
         raise Exit
       end
     done
   with Exit -> ());
  !chosen

let update t ~reinforcement =
  let r = t.params.recency in
  let floor = t.params.floor in
  (* Reinforcements must all be computed against the pre-update
     propensities, so evaluate them before mutating. *)
  let u = Array.init (Array.length t.q) reinforcement in
  Array.iteri
    (fun j uj ->
      let q = ((1. -. r) *. t.q.(j)) +. uj in
      (* [Stdlib.max floor q] without its polymorphic compare. *)
      t.q.(j) <- (if floor >= q then floor else q))
    u
