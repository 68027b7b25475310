type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let cv t = stddev t /. mean t

let min_value t = t.min_v

let max_value t = t.max_v

let of_array values =
  let t = create () in
  Array.iter (add t) values;
  t

let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Summary.percentile: empty array";
  if p < 0. || p > 1. then invalid_arg "Summary.percentile: p out of [0,1]";
  let sorted = Array.copy values in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end
