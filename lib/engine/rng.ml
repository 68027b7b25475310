(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh [Int64] on every draw. Every draw
   below reads and writes it in place and is small enough to inline,
   so the 64-bit arithmetic stays in registers. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let next_int64 t = next t

let split t = create (next t)

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling avoids modulo bias. *)
  let r = ref (bits t) in
  while !r - (!r mod bound) + (bound - 1) < 0 do
    r := bits t
  done;
  !r mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] uniform t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let float t bound = uniform t *. bound

let bool t = Int64.logand (next t) 1L = 1L

(* A uniform deviate in (0, 1): the log-taking draws below reject 0. *)
let[@inline] nonzero_uniform t =
  let u = ref (uniform t) in
  while !u <= 0. do
    u := uniform t
  done;
  !u

let[@inline] gaussian t ~mu ~sigma =
  let u1 = nonzero_uniform t in
  let u2 = uniform t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~mean = -.mean *. log (nonzero_uniform t)

let lognormal_cv t ~mean ~cv =
  if cv <= 0. then mean
  else begin
    let sigma2 = log (1. +. (cv *. cv)) in
    let mu = log mean -. (sigma2 /. 2.) in
    exp (gaussian t ~mu ~sigma:(sqrt sigma2))
  end

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
