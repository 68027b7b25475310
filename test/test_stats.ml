(* Tests for histograms, series, tables and CSV. *)

open Sim_stats

(* ----- Histogram ----- *)

let test_hist_buckets () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 2; 3; 1024; 1025; 2047; 2048 ];
  Alcotest.(check int) "count" 8 (Histogram.count h);
  Alcotest.(check int) "bucket 0 (values 0,1)" 2 (Histogram.bucket h 0);
  Alcotest.(check int) "bucket 1 (values 2,3)" 2 (Histogram.bucket h 1);
  Alcotest.(check int) "bucket 10" 3 (Histogram.bucket h 10);
  Alcotest.(check int) "bucket 11" 1 (Histogram.bucket h 11)

let test_hist_count_ge () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 100; 1024; 1_048_576; 40_000_000 ];
  Alcotest.(check int) ">=2^10" 3 (Histogram.count_ge_pow2 h 10);
  Alcotest.(check int) ">=2^20" 2 (Histogram.count_ge_pow2 h 20);
  Alcotest.(check int) ">=2^25" 1 (Histogram.count_ge_pow2 h 25);
  Alcotest.(check int) ">=2^30" 0 (Histogram.count_ge_pow2 h 30)

let test_hist_minmax_mean () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty min" true (Histogram.min_value h = None);
  List.iter (Histogram.add h) [ 5; 10; 15 ];
  Alcotest.(check bool) "min" true (Histogram.min_value h = Some 5);
  Alcotest.(check bool) "max" true (Histogram.max_value h = Some 15);
  Alcotest.(check (float 1e-9)) "mean" 10. (Histogram.mean h);
  Alcotest.(check int) "sum" 30 (Histogram.sum h)

let test_hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 100 ];
  List.iter (Histogram.add b) [ 2_000; 3 ];
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 4 (Histogram.count m);
  Alcotest.(check bool) "max" true (Histogram.max_value m = Some 2_000);
  Alcotest.(check int) "inputs untouched" 2 (Histogram.count a)

let test_hist_negative () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.add: negative sample") (fun () ->
      Histogram.add h (-1))

let prop_hist_total =
  QCheck.Test.make ~name:"histogram buckets sum to count"
    QCheck.(list (int_range 0 1_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let total = ref 0 in
      for k = 0 to 62 do
        total := !total + Histogram.bucket h k
      done;
      !total = List.length samples)

(* ----- Series ----- *)

let series_a =
  Series.make ~label:"a" ~x_name:"x" ~y_name:"y" [ (1., 10.); (2., 20.) ]

let test_series_access () =
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "points" [ (1., 10.); (2., 20.) ] (Series.points series_a);
  Alcotest.(check bool) "y_at hit" true (Series.y_at series_a 2. = Some 20.);
  Alcotest.(check bool) "y_at miss" true (Series.y_at series_a 3. = None)

let test_series_map_ratio () =
  let doubled = Series.map_y series_a ~f:(fun y -> y *. 2.) in
  Alcotest.(check bool) "map" true (Series.y_at doubled 1. = Some 20.);
  let r = Series.ratio doubled series_a in
  Alcotest.(check bool) "ratio" true (Series.y_at r 2. = Some 2.)

(* ----- Table ----- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let out = Table.render ~headers:[ "k"; "v" ] [ [ "a"; "1" ]; [ "b" ] ] in
  Alcotest.(check bool) "has header" true (contains_sub out "| k");
  Alcotest.(check bool) "has row a" true (contains_sub out "| a");
  (* Short rows are padded with an empty cell. *)
  Alcotest.(check bool) "pads short rows" true (contains_sub out "| b")

let test_table_fixed () =
  Alcotest.(check string) "two decimals" "3.14" (Table.fixed 3.14159);
  Alcotest.(check string) "nan" "-" (Table.fixed nan);
  Alcotest.(check string) "decimals" "2.7183" (Table.fixed ~decimals:4 2.71828)

let test_bar_chart () =
  let out = Table.bar_chart ~width:10 [ ("x", 10.); ("y", 5.) ] in
  Alcotest.(check bool) "x longer than y" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    let hashes s = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 s in
    match lines with
    | lx :: ly :: _ -> hashes lx = 10 && hashes ly = 5
    | _ -> false)

(* ----- CSV ----- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_of_series () =
  let rows = Csv.of_series [ series_a ] in
  Alcotest.(check int) "rows" 3 (List.length rows);
  Alcotest.(check (list string)) "header" [ "x"; "a" ] (List.hd rows)

let suite =
  [
    Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
    Alcotest.test_case "hist count_ge" `Quick test_hist_count_ge;
    Alcotest.test_case "hist min/max/mean" `Quick test_hist_minmax_mean;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "hist negative" `Quick test_hist_negative;
    QCheck_alcotest.to_alcotest prop_hist_total;
    Alcotest.test_case "series access" `Quick test_series_access;
    Alcotest.test_case "series map/ratio" `Quick test_series_map_ratio;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table fixed" `Quick test_table_fixed;
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "csv escape" `Quick test_csv_escape;
    Alcotest.test_case "csv of series" `Quick test_csv_of_series;
  ]
