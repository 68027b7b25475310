type freq = int

let khz k =
  if k <= 0 then invalid_arg "Units.khz: frequency must be positive";
  k

let mhz m = khz (m * 1_000)

let ghz_f g =
  let k = Float.round (g *. 1e6) in
  khz (int_of_float k)

let freq_to_khz f = f

(* freq is kHz = cycles per ms. *)
let cycles_of_ms f ms = f * ms

let cycles_of_us f us = f * us / 1_000

let cycles_of_ns f ns = f * ns / 1_000_000

let cycles_of_sec f s = f * 1_000 * s

let cycles_of_sec_f f s = int_of_float (Float.round (float_of_int f *. 1_000. *. s))

let sec_of_cycles f c = float_of_int c /. (float_of_int f *. 1_000.)

let ms_of_cycles f c = float_of_int c /. float_of_int f

let us_of_cycles f c = float_of_int c *. 1_000. /. float_of_int f

let pow2 k =
  if k < 0 || k > 61 then invalid_arg "Units.pow2: exponent out of range";
  1 lsl k

(* A fixed six-step binary search over the bit positions: it runs on
   every [Histogram.add], so on every recorded spin wait. *)
let log2_floor n =
  if n < 1 then invalid_arg "Units.log2_floor: argument must be >= 1";
  let k = ref 0 and v = ref n in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; k := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; k := !k + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; k := !k + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; k := !k + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; k := !k + 2 end;
  if !v lsr 1 <> 0 then k := !k + 1;
  !k

let pp_cycles f fmt c =
  let s = sec_of_cycles f c in
  if s >= 1. then Format.fprintf fmt "%.3f s" s
  else if s >= 1e-3 then Format.fprintf fmt "%.3f ms" (s *. 1e3)
  else if s >= 1e-6 then Format.fprintf fmt "%.3f us" (s *. 1e6)
  else Format.fprintf fmt "%d cyc" c
