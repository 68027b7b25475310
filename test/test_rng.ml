(* Tests for the deterministic splitmix64 RNG. *)

open Sim_engine

let test_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let different = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then different := true
  done;
  Alcotest.(check bool) "streams differ" true !different

let test_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let a = Rng.next_int64 child and b = Rng.next_int64 parent in
  Alcotest.(check bool) "child differs from parent" true (a <> b)

let test_copy () =
  let a = Rng.create 9L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

(* Known-answer vectors: the reference splitmix64 stream for seed 0,
   and its continuations through [copy] and [split]. The state is
   kept unboxed in bytes; these pin that it draws the same stream as
   the textbook generator. *)
let splitmix64_seed0 =
  [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]

let test_known_answer () =
  let rng = Rng.create 0L in
  List.iteri
    (fun i expected ->
      Alcotest.(check int64) (Printf.sprintf "draw %d" i) expected
        (Rng.next_int64 rng))
    splitmix64_seed0

let test_known_answer_copy () =
  let rng = Rng.create 0L in
  ignore (Rng.next_int64 rng);
  let copy = Rng.copy rng in
  Alcotest.(check int64) "copy draws the original's 2nd" 0x6e789e6aa1b965f4L
    (Rng.next_int64 copy);
  Alcotest.(check int64) "copy draws the original's 3rd" 0x06c45d188009454fL
    (Rng.next_int64 copy);
  Alcotest.(check int64) "original unaffected by the copy" 0x6e789e6aa1b965f4L
    (Rng.next_int64 rng)

let test_known_answer_split () =
  let parent = Rng.create 0L in
  let child = Rng.split parent in
  (* The child is seeded with the parent's first draw. *)
  Alcotest.(check int64) "child 1st" 0xa706dd2f4d197e6fL (Rng.next_int64 child);
  Alcotest.(check int64) "child 2nd" 0xb382a305f4414f5eL (Rng.next_int64 child);
  Alcotest.(check int64) "parent continues at its 2nd" 0x6e789e6aa1b965f4L
    (Rng.next_int64 parent);
  (* uniform is the top 53 bits of the next draw. *)
  Alcotest.(check (float 0.)) "uniform of the 3rd"
    (Int64.to_float (Int64.shift_right_logical 0x06c45d188009454fL 11)
    *. 0x1.0p-53)
    (Rng.uniform parent)

let test_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of range"
  done

let test_int_invalid () =
  let rng = Rng.create 7L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in () =
  let rng = Rng.create 11L in
  for _ = 1 to 500 do
    let v = Rng.int_in rng ~lo:(-3) ~hi:3 in
    if v < -3 || v > 3 then Alcotest.fail "out of range"
  done

let test_uniform_range () =
  let rng = Rng.create 21L in
  for _ = 1 to 1000 do
    let u = Rng.uniform rng in
    if u < 0. || u >= 1. then Alcotest.fail "uniform out of [0,1)"
  done

let test_uniform_mean () =
  let rng = Rng.create 33L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create 55L in
  let n = 20_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mu:3. ~sigma:2. in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~3" true (abs_float (mean -. 3.) < 0.1);
  Alcotest.(check bool) "var ~4" true (abs_float (var -. 4.) < 0.3)

let test_exponential_mean () =
  let rng = Rng.create 77L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~5" true (abs_float (mean -. 5.) < 0.25)

let test_lognormal () =
  let rng = Rng.create 88L in
  Alcotest.(check int) "cv=0 is exact" 100
    (Rng.lognormal_int rng (Rng.lognormal_params ~mean:100. ~cv:0.));
  let p = Rng.lognormal_params ~mean:100. ~cv:0.3 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.lognormal_int rng p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "arithmetic mean preserved" true
    (abs_float (mean -. 100.) < 3.)

(* The per-draw formula [lognormal_int] replaced, written out from the
   raw stream: every parameter recomputed on each draw, the uniform
   converted by [Int64.to_float]. *)
let old_lognormal rng ~mean ~cv =
  let uniform () =
    Int64.to_float (Int64.shift_right_logical (Rng.next_int64 rng) 11)
    *. 0x1.0p-53
  in
  let x =
    if cv <= 0. then mean
    else begin
      let sigma2 = log (1. +. (cv *. cv)) in
      let mu = log mean -. (sigma2 /. 2.) in
      let u1 = ref (uniform ()) in
      while !u1 <= 0. do
        u1 := uniform ()
      done;
      let u2 = uniform () in
      let r = sqrt (-2. *. log !u1) in
      exp (mu +. (sqrt sigma2 *. r *. cos (2. *. Float.pi *. u2)))
    end
  in
  Int.max 1 (int_of_float x)

let prop_lognormal_matches_old_formula =
  QCheck.Test.make ~count:500
    ~name:"lognormal_int = per-draw formula, bit for bit"
    QCheck.(
      triple int64 (int_range 1 100_000_000)
        (oneof [ float_range 0. 3.; always 0.; float_range (-1.) 0. ]))
    (fun (seed, mean, cv) ->
      let mean = float_of_int mean in
      let a = Rng.create seed and b = Rng.create seed in
      let p = Rng.lognormal_params ~mean ~cv in
      List.for_all Fun.id
        (List.init 20 (fun _ ->
             Rng.lognormal_int a p = old_lognormal b ~mean ~cv))
      && Rng.next_int64 a = Rng.next_int64 b)

let test_shuffle_is_permutation () =
  let rng = Rng.create 99L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_pick () =
  let rng = Rng.create 13L in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let v = Rng.pick rng arr in
    if not (Array.exists (( = ) v) arr) then Alcotest.fail "pick outside array"
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let prop_int_in_range =
  QCheck.Test.make ~name:"int_in respects bounds"
    QCheck.(triple int64 small_int small_int)
    (fun (seed, a, b) ->
      let lo = min a b and hi = max a b in
      let rng = Rng.create seed in
      let v = Rng.int_in rng ~lo ~hi in
      lo <= v && v <= hi)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split" `Quick test_split_independent;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "known answer: seed 0" `Quick test_known_answer;
    Alcotest.test_case "known answer: copy" `Quick test_known_answer_copy;
    Alcotest.test_case "known answer: split" `Quick test_known_answer_split;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid" `Quick test_int_invalid;
    Alcotest.test_case "int_in" `Quick test_int_in;
    Alcotest.test_case "uniform range" `Quick test_uniform_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "lognormal" `Quick test_lognormal;
    Alcotest.test_case "shuffle" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "pick" `Quick test_pick;
    QCheck_alcotest.to_alcotest prop_int_in_range;
    QCheck_alcotest.to_alcotest prop_lognormal_matches_old_formula;
  ]
