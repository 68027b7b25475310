let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string row = String.concat "," (List.map escape row)

let to_string rows = String.concat "\n" (List.map row_to_string rows) ^ "\n"

let of_series series =
  match series with
  | [] -> []
  | first :: _ ->
    let header = first.Series.x_name :: List.map (fun s -> s.Series.label) series in
    let xs = List.sort_uniq compare (List.concat_map Series.xs series) in
    let row x =
      Printf.sprintf "%g" x
      :: List.map
           (fun s ->
             match Series.y_at s x with
             | Some y -> Printf.sprintf "%g" y
             | None -> "")
           series
    in
    header :: List.map row xs
