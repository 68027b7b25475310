type point = { x : float; y : float }

type t = { label : string; x_name : string; y_name : string; points : point list }

let make ~label ~x_name ~y_name pts =
  { label; x_name; y_name; points = List.map (fun (x, y) -> { x; y }) pts }

let points s = List.map (fun p -> (p.x, p.y)) s.points

let xs s = List.map (fun p -> p.x) s.points

let y_at s x =
  List.find_map (fun p -> if p.x = x then Some p.y else None) s.points

let map_y s ~f = { s with points = List.map (fun p -> { p with y = f p.y }) s.points }

let ratio a b =
  let pts =
    List.filter_map
      (fun p ->
        match y_at b p.x with
        | Some denom when denom <> 0. -> Some (p.x, p.y /. denom)
        | Some _ | None -> None)
      a.points
  in
  make ~label:(a.label ^ "/" ^ b.label) ~x_name:a.x_name ~y_name:"ratio" pts
