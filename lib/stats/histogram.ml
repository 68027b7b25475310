type t = {
  buckets : int array; (* index = log2_floor of the sample, 63 buckets *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let nbuckets = 63

let create () =
  { buckets = Array.make nbuckets 0; count = 0; sum = 0; min_v = max_int; max_v = -1 }

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative sample";
  let k = Sim_engine.Units.log2_floor (Int.max v 1) in
  t.buckets.(k) <- t.buckets.(k) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count

let sum t = t.sum

let min_value t = if t.count = 0 then None else Some t.min_v

let max_value t = if t.count = 0 then None else Some t.max_v

let bucket t k =
  if k < 0 || k >= nbuckets then invalid_arg "Histogram.bucket: index out of range";
  t.buckets.(k)

let count_ge_pow2 t k =
  if k < 0 || k >= nbuckets then invalid_arg "Histogram.count_ge_pow2: out of range";
  let acc = ref 0 in
  for i = k to nbuckets - 1 do
    acc := !acc + t.buckets.(i)
  done;
  !acc

let merge a b =
  let out = create () in
  for i = 0 to nbuckets - 1 do
    out.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  out.count <- a.count + b.count;
  out.sum <- a.sum + b.sum;
  out.min_v <- Int.min a.min_v b.min_v;
  out.max_v <- Int.max a.max_v b.max_v;
  out

let mean t = if t.count = 0 then nan else float_of_int t.sum /. float_of_int t.count
