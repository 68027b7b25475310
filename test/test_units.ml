(* Tests for time-unit conversions. *)

open Sim_engine

let freq = Units.ghz_f 2.33

let test_freq_khz () =
  Alcotest.(check int) "2.33 GHz in kHz" 2_330_000 (Units.freq_to_khz freq);
  Alcotest.(check int) "mhz" 1_000_000 (Units.freq_to_khz (Units.mhz 1_000));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Units.khz: frequency must be positive") (fun () ->
      ignore (Units.khz 0))

let test_cycle_conversions () =
  Alcotest.(check int) "1 ms" 2_330_000 (Units.cycles_of_ms freq 1);
  Alcotest.(check int) "10 ms" 23_300_000 (Units.cycles_of_ms freq 10);
  Alcotest.(check int) "1 us" 2_330 (Units.cycles_of_us freq 1);
  Alcotest.(check int) "1 s" 2_330_000_000 (Units.cycles_of_sec freq 1);
  Alcotest.(check int) "100 ns" 233 (Units.cycles_of_ns freq 100)

let test_fractional_seconds () =
  Alcotest.(check int) "0.5 s" 1_165_000_000 (Units.cycles_of_sec_f freq 0.5)

let test_roundtrip () =
  let cycles = 4_660_000 in
  Alcotest.(check (float 1e-9)) "sec_of_cycles" 0.002
    (Units.sec_of_cycles freq cycles);
  Alcotest.(check (float 1e-9)) "ms_of_cycles" 2. (Units.ms_of_cycles freq cycles);
  Alcotest.(check (float 1e-6)) "us_of_cycles" 2000.
    (Units.us_of_cycles freq cycles)

let test_pow2 () =
  Alcotest.(check int) "2^0" 1 (Units.pow2 0);
  Alcotest.(check int) "2^10" 1024 (Units.pow2 10);
  Alcotest.(check int) "2^20" 1_048_576 (Units.pow2 20);
  Alcotest.check_raises "negative"
    (Invalid_argument "Units.pow2: exponent out of range") (fun () ->
      ignore (Units.pow2 (-1)))

let test_log2_floor () =
  Alcotest.(check int) "1" 0 (Units.log2_floor 1);
  Alcotest.(check int) "2" 1 (Units.log2_floor 2);
  Alcotest.(check int) "3" 1 (Units.log2_floor 3);
  Alcotest.(check int) "1024" 10 (Units.log2_floor 1024);
  Alcotest.(check int) "1025" 10 (Units.log2_floor 1025);
  Alcotest.check_raises "zero"
    (Invalid_argument "Units.log2_floor: argument must be >= 1") (fun () ->
      ignore (Units.log2_floor 0))

(* The constant-time [log2_floor] against the shift loop it replaced,
   at 2^k - 1, 2^k and 2^k + 1 for every k in 0..61. *)
let log2_floor_loop n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let test_log2_floor_matches_loop () =
  for k = 0 to 61 do
    List.iter
      (fun n ->
        if n >= 1 then
          Alcotest.(check int) (Printf.sprintf "log2_floor %d" n)
            (log2_floor_loop n) (Units.log2_floor n))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  Alcotest.(check int) "max_int" 61 (Units.log2_floor max_int)

let test_pp_cycles () =
  let show c = Format.asprintf "%a" (Units.pp_cycles freq) c in
  Alcotest.(check string) "seconds" "2.000 s" (show (Units.cycles_of_sec freq 2));
  Alcotest.(check string) "millis" "3.000 ms" (show (Units.cycles_of_ms freq 3));
  Alcotest.(check string) "micros" "5.000 us" (show (Units.cycles_of_us freq 5))

let prop_log2_floor_bounds =
  QCheck.Test.make ~name:"2^log2_floor n <= n < 2^(log2_floor n + 1)"
    QCheck.(int_range 1 (1 lsl 40))
    (fun n ->
      let k = Units.log2_floor n in
      Units.pow2 k <= n && (k = 61 || n < Units.pow2 (k + 1)))

let prop_ms_roundtrip =
  QCheck.Test.make ~name:"ms -> cycles -> ms roundtrip"
    QCheck.(int_range 1 100_000)
    (fun ms ->
      let back = Units.ms_of_cycles freq (Units.cycles_of_ms freq ms) in
      abs_float (back -. float_of_int ms) < 1e-6)

let suite =
  [
    Alcotest.test_case "freq" `Quick test_freq_khz;
    Alcotest.test_case "cycle conversions" `Quick test_cycle_conversions;
    Alcotest.test_case "fractional seconds" `Quick test_fractional_seconds;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "pow2" `Quick test_pow2;
    Alcotest.test_case "log2_floor" `Quick test_log2_floor;
    Alcotest.test_case "log2_floor matches the loop" `Quick
      test_log2_floor_matches_loop;
    Alcotest.test_case "pp_cycles" `Quick test_pp_cycles;
    QCheck_alcotest.to_alcotest prop_log2_floor_bounds;
    QCheck_alcotest.to_alcotest prop_ms_roundtrip;
  ]
