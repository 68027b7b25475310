(* Inline-everything HTML renderer. Everything below is emitted from
   scratch into one buffer: CSS in a <style> block, a few lines of JS
   for legend highlighting, charts as inline SVG with native <title>
   tooltips. Determinism matters (a CI artifact is diffed across
   reruns), so records and series keys are sorted and all numbers are
   printed with fixed formats. *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let palette =
  [|
    "#2563eb"; "#dc2626"; "#059669"; "#d97706"; "#7c3aed"; "#0891b2";
    "#be185d"; "#4d7c0f"; "#9333ea"; "#b45309"; "#0d9488"; "#6b7280";
  |]

let color i = palette.(i mod Array.length palette)

let short_sha (r : Record.t) =
  match r.Record.git_sha with
  | Some s ->
    esc (String.sub s 0 (min 12 (String.length s)))
    ^ (if r.Record.git_dirty then "<span class=\"dirty\">+dirty</span>" else "")
  | None -> "&mdash;"

(* ----- one trend chart ----- *)

type family = {
  f_title : string;
  f_unit : string;
  f_log : bool;  (** log10 y-axis (throughput spans decades) *)
  f_extract : Record.t -> (string * float) list;
}

let families =
  [
    {
      f_title = "Figure / ablation wall time";
      f_unit = "seconds";
      f_log = false;
      f_extract = Compare.runs_of;
    };
    {
      f_title = "Micro throughput (event queue + PDES)";
      f_unit = "events/sec";
      f_log = true;
      f_extract = Compare.micro_of;
    };
    {
      f_title = "Fairness: attained / entitled";
      f_unit = "ratio";
      f_log = false;
      f_extract = Compare.fairness_of;
    };
    {
      f_title = "SimCheck health";
      f_unit = "count";
      f_log = false;
      f_extract = Compare.check_of;
    };
    {
      f_title = "Cluster consolidation";
      f_unit = "value";
      f_log = false;
      f_extract = Compare.cluster_of;
    };
  ]

let width = 760.
let height = 240.
let ml = 64.
let mr = 12.
let mt = 10.
let mb = 28.

let fnum v =
  (* Fixed, locale-free value formatting for labels and tooltips. *)
  if Float.abs v >= 1e6 then Printf.sprintf "%.3g" v
  else if Float.is_integer v && Float.abs v < 1e6 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let chart buf fam_index fam (records : Record.t list) =
  (* Only runs that carry this family participate; x is the position
     among those, in registry (date, id) order. *)
  let participating =
    List.filter (fun r -> fam.f_extract r <> []) records
  in
  Buffer.add_string buf
    (Printf.sprintf "<section class=\"family\"><h2>%s</h2>\n"
       (esc fam.f_title));
  if participating = [] then
    Buffer.add_string buf
      "<p class=\"empty\">no runs carry this metric family yet</p>\n</section>\n"
  else begin
    let n = List.length participating in
    let keys =
      List.sort_uniq compare
        (List.concat_map (fun r -> List.map fst (fam.f_extract r)) participating)
    in
    let series =
      List.map
        (fun key ->
          ( key,
            List.concat
              (List.mapi
                 (fun i r ->
                   match List.assoc_opt key (fam.f_extract r) with
                   | Some v -> [ (i, v) ]
                   | None -> [])
                 participating) ))
        keys
    in
    let values = List.concat_map (fun (_, pts) -> List.map snd pts) series in
    let vmax = List.fold_left Float.max neg_infinity values in
    let vmin = List.fold_left Float.min infinity values in
    let y_of v =
      let lo, hi =
        if fam.f_log then
          let safe x = Float.log10 (Float.max x 1e-9) in
          (safe vmin -. 0.05, safe vmax +. 0.05)
        else (0., Float.max (vmax *. 1.05) 1e-9)
      in
      let v = if fam.f_log then Float.log10 (Float.max v 1e-9) else v in
      let frac = if hi = lo then 0.5 else (v -. lo) /. (hi -. lo) in
      mt +. ((height -. mt -. mb) *. (1. -. frac))
    in
    let x_of i =
      if n = 1 then ml +. ((width -. ml -. mr) /. 2.)
      else ml +. ((width -. ml -. mr) *. float_of_int i /. float_of_int (n - 1))
    in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" \
          role=\"img\" aria-label=\"%s\">\n"
         width height width height (esc fam.f_title));
    (* Frame and y labels (min / max, plus unit). *)
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
          class=\"frame\"/>\n"
         ml mt (width -. ml -. mr) (height -. mt -. mb));
    let ylabel v =
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%.1f\" y=\"%.1f\" class=\"ylab\">%s</text>\n" (ml -. 6.)
           (y_of v +. 3.) (esc (fnum v)))
    in
    if vmax > vmin then begin
      ylabel vmin;
      ylabel vmax
    end
    else ylabel vmax;
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" class=\"unit\">%s</text>\n" 4.
         (mt +. 10.) (esc fam.f_unit));
    (* x ticks: run positions. *)
    List.iteri
      (fun i (r : Record.t) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%.1f\" y=\"%.1f\" class=\"xlab\"><title>%s</title>%d</text>\n"
             (x_of i)
             (height -. mb +. 16.)
             (esc r.Record.id) (i + 1)))
      participating;
    (* One polyline + markers per series. *)
    List.iteri
      (fun si (key, pts) ->
        let cls = Printf.sprintf "f%ds%d" fam_index si in
        if List.length pts > 1 then
          Buffer.add_string buf
            (Printf.sprintf
               "<polyline class=\"line %s\" style=\"stroke:%s\" points=\"%s\"/>\n"
               cls (color si)
               (String.concat " "
                  (List.map
                     (fun (i, v) ->
                       Printf.sprintf "%.1f,%.1f" (x_of i) (y_of v))
                     pts)));
        List.iter
          (fun (i, v) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "<circle class=\"dot %s\" style=\"fill:%s\" cx=\"%.1f\" \
                  cy=\"%.1f\" r=\"2.5\"><title>%s\nrun %d: %s %s</title></circle>\n"
                 cls (color si) (x_of i) (y_of v) (esc key) (i + 1)
                 (esc (fnum v)) (esc fam.f_unit)))
          pts)
      series;
    Buffer.add_string buf "</svg>\n<ul class=\"legend\">\n";
    List.iteri
      (fun si (key, _) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<li data-s=\"f%ds%d\"><span class=\"swatch\" \
              style=\"background:%s\"></span>%s</li>\n"
             fam_index si (color si) (esc key)))
      series;
    Buffer.add_string buf "</ul>\n</section>\n"
  end

(* ----- the page ----- *)

let style =
  {css|
body { font: 14px/1.45 system-ui, sans-serif; margin: 24px auto; max-width: 820px; color: #1f2937; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin: 28px 0 8px; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th, td { border: 1px solid #e5e7eb; padding: 3px 6px; text-align: left; white-space: nowrap; }
th { background: #f3f4f6; }
td.num, th.num { text-align: right; }
.dirty { color: #dc2626; font-weight: 600; }
svg { background: #fafafa; border: 1px solid #e5e7eb; }
svg .frame { fill: none; stroke: #d1d5db; }
svg .line { fill: none; stroke-width: 1.6; }
svg .ylab { font: 10px system-ui, sans-serif; text-anchor: end; fill: #6b7280; }
svg .xlab { font: 10px system-ui, sans-serif; text-anchor: middle; fill: #6b7280; }
svg .unit { font: 10px system-ui, sans-serif; fill: #9ca3af; }
svg .dim { opacity: 0.12; }
ul.legend { list-style: none; margin: 6px 0 0; padding: 0; display: flex; flex-wrap: wrap; gap: 2px 14px; font-size: 12px; }
ul.legend li { cursor: default; }
.swatch { display: inline-block; width: 10px; height: 10px; margin-right: 4px; border-radius: 2px; }
p.empty { color: #9ca3af; font-style: italic; }
|css}

(* Legend hover dims every other series in that chart. *)
let script =
  {js|
document.querySelectorAll('ul.legend li').forEach(function (li) {
  var cls = li.getAttribute('data-s');
  var chart = li.closest('section');
  li.addEventListener('mouseenter', function () {
    chart.querySelectorAll('.line, .dot').forEach(function (el) {
      if (!el.classList.contains(cls)) el.classList.add('dim');
    });
  });
  li.addEventListener('mouseleave', function () {
    chart.querySelectorAll('.dim').forEach(function (el) {
      el.classList.remove('dim');
    });
  });
});
|js}

let report records =
  let records =
    List.sort
      (fun (a : Record.t) (b : Record.t) ->
        compare (a.Record.date, a.Record.id) (b.Record.date, b.Record.id))
      records
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n\
     <title>ASMan run registry</title>\n<style>";
  Buffer.add_string buf style;
  Buffer.add_string buf "</style>\n</head>\n<body>\n";
  Buffer.add_string buf
    (Printf.sprintf "<h1>ASMan run registry &mdash; %d run%s</h1>\n"
       (List.length records)
       (if List.length records = 1 then "" else "s"));
  (* Run index. *)
  Buffer.add_string buf
    "<table>\n<tr><th class=\"num\">#</th><th>id</th><th>kind</th>\
     <th>date</th><th>git</th><th class=\"num\">seed</th>\
     <th class=\"num\">scale</th><th>queue</th><th class=\"num\">-j</th>\
     <th class=\"num\">sim-jobs</th><th>topology</th><th>acct</th>\
     <th>chaos</th><th class=\"num\">wall s</th></tr>\n";
  List.iteri
    (fun i (r : Record.t) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td class=\"num\">%d</td><td>%s</td><td>%s</td><td>%s</td>\
            <td>%s</td><td class=\"num\">%Ld</td><td class=\"num\">%g</td>\
            <td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td>\
            <td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%.3f</td></tr>\n"
           (i + 1) (esc r.Record.id) (esc r.Record.kind) (esc r.Record.date)
           (short_sha r) r.Record.seed r.Record.scale (esc r.Record.queue)
           r.Record.workers r.Record.sim_jobs
           (esc r.Record.topology)
           (esc r.Record.accounting) (esc r.Record.chaos) r.Record.wall_sec))
    records;
  Buffer.add_string buf "</table>\n";
  List.iteri (fun fi fam -> chart buf fi fam records) families;
  Buffer.add_string buf "<script>";
  Buffer.add_string buf script;
  Buffer.add_string buf "</script>\n</body>\n</html>\n";
  Buffer.contents buf

(* ----- self-contained HTML checks ----- *)

(* The registry's HTML report must be a single self-contained file.
   This is deliberately not an HTML parser: it tokenizes tags well
   enough to (a) match open/close tags for non-void elements and
   (b) reject anything that smells like an external reference. *)

let void_tags =
  [ "meta"; "br"; "hr"; "img"; "input"; "area"; "base"; "col"; "embed";
    "source"; "track"; "wbr" ]

let lowercase_contains ~needle hay =
  let hay = String.lowercase_ascii hay in
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let validate_html s =
  let n = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* External-reference scan over the whole document. *)
  let banned =
    [ "http://"; "https://"; "file://"; "<link"; "@import"; " src=" ]
  in
  match List.find_opt (fun b -> lowercase_contains ~needle:b s) banned with
  | Some b -> err "external reference: document contains %S" b
  | None ->
    (* Tag balancing. Skips comments; <script>/<style> bodies are
       consumed verbatim up to their close tag. *)
    let stack = ref [] in
    let rec tag_name i acc =
      if i < n then
        match s.[i] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '!' | '-' ->
          tag_name (i + 1) (acc ^ String.make 1 (Char.lowercase_ascii s.[i]))
        | _ -> (acc, i)
      else (acc, i)
    in
    let rec find_char i c = if i >= n then n else if s.[i] = c then i else find_char (i + 1) c in
    let find_sub i sub =
      let m = String.length sub in
      let rec go i =
        if i + m > n then n
        else if String.lowercase_ascii (String.sub s i m) = sub then i
        else go (i + 1)
      in
      go i
    in
    let rec scan i =
      if i >= n then
        match !stack with
        | [] -> Ok ()
        | t :: _ -> err "unclosed <%s>" t
      else if s.[i] <> '<' then scan (i + 1)
      else if i + 3 < n && String.sub s i 4 = "<!--" then
        let close = find_sub (i + 4) "-->" in
        if close = n then err "unterminated comment" else scan (close + 3)
      else if i + 1 < n && s.[i + 1] = '/' then begin
        let name, j = tag_name (i + 2) "" in
        match !stack with
        | top :: rest when top = name ->
          stack := rest;
          scan (find_char j '>' + 1)
        | top :: _ -> err "</%s> closes <%s>" name top
        | [] -> err "</%s> with nothing open" name
      end
      else begin
        let name, j = tag_name (i + 1) "" in
        let close = find_char j '>' in
        if close = n then err "unterminated tag <%s" name
        else if name = "" || name.[0] = '!' then scan (close + 1)
        else if s.[close - 1] = '/' || List.mem name void_tags then
          scan (close + 1)
        else if name = "script" || name = "style" then begin
          let endtag = "</" ^ name in
          let stop = find_sub (close + 1) endtag in
          if stop = n then err "unterminated <%s>" name
          else scan (find_char (stop + String.length endtag) '>' + 1)
        end
        else begin
          stack := name :: !stack;
          scan (close + 1)
        end
      end
    in
    scan 0
