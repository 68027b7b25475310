let fixed ?(decimals = 2) v =
  if Float.is_nan v then "-" else Printf.sprintf "%.*f" decimals v

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let render ~headers rows =
  let ncols = List.length headers in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row
    else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then
            widths.(i) <- Int.max widths.(i) (String.length cell))
        row)
    rows;
  let line sep =
    let parts = Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths) in
    sep ^ String.concat sep parts ^ sep
  in
  let render_row cells =
    let parts = List.mapi (fun i c -> " " ^ pad widths.(i) c ^ " ") cells in
    "|" ^ String.concat "|" parts ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line "+");
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line "+");
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line "+");
  Buffer.contents buf

let render_series series =
  match series with
  | [] -> render ~headers:[ "(empty)" ] []
  | first :: _ ->
    let headers = first.Series.x_name :: List.map (fun s -> s.Series.label) series in
    let xs =
      List.sort_uniq compare (List.concat_map (fun s -> Series.xs s) series)
    in
    let row x =
      fixed ~decimals:1 x
      :: List.map
           (fun s ->
             match Series.y_at s x with
             | Some y -> fixed ~decimals:2 y
             | None -> "-")
           series
    in
    render ~headers (List.map row xs)

let bar_chart ?(width = 40) entries =
  let max_v = List.fold_left (fun acc (_, v) -> max acc v) 0. entries in
  let max_label =
    List.fold_left (fun acc (l, _) -> Int.max acc (String.length l)) 0 entries
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, v) ->
      let n =
        if max_v <= 0. then 0
        else int_of_float (Float.round (v /. max_v *. float_of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%s | %s %s\n" (pad max_label label) (String.make n '#')
           (fixed v)))
    entries;
  Buffer.contents buf
