(* The registry's record type. Serialization notes: the seed is
   written as a JSON int when it fits 63 bits and as a decimal string
   otherwise, so any int64 round-trips exactly; absent git info is
   "git_sha": null, distinct from a present-but-dirty sha. *)

module Json = Sim_obs.Json

type t = {
  id : string;
  kind : string;
  date : string;
  git_sha : string option;
  git_dirty : bool;
  seed : int64;
  scale : float;
  queue : string;
  workers : int;
  sim_jobs : int;
  topology : string;
  numa : bool;
  accounting : string;
  chaos : string;
  label : string;
  spec_digest : string;
  wall_sec : float;
  busy_sec : float;
  sections : Json.t;
  metrics : (string * float) list;
  exports : string list;
}

(* ----- canonical digest -----

   A digest names a spec across releases, so this module fixes the
   text it hashes: compact JSON, object fields sorted by key, and
   non-integral floats in [%.17g], the form digests were first taken
   in, whatever shorter form the JSON printer now gives them. *)

let rec canonical b (v : Json.t) =
  let seq items f =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        f x)
      items
  in
  match v with
  | Json.Float f when not (Float.is_integer f && Float.abs f < 1e15) ->
    Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.List (_ :: _ as items) ->
    Buffer.add_char b '[';
    seq items (canonical b);
    Buffer.add_char b ']'
  | Json.Obj (_ :: _ as fields) ->
    Buffer.add_char b '{';
    seq
      (List.sort (fun (k, _) (k', _) -> compare k k') fields)
      (fun (k, x) ->
        Buffer.add_string b (Json.to_string (Json.String k));
        Buffer.add_string b ": ";
        canonical b x);
    Buffer.add_char b '}'
  | v -> Buffer.add_string b (Json.to_string v)

let canonical_digest v =
  let b = Buffer.create 256 in
  canonical b v;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ----- construction ----- *)

let make ~id ~kind ?date ?git ~seed ~scale ~queue ~workers ?(sim_jobs = 1)
    ?(topology = "") ?(numa = false) ?(accounting = "precise")
    ?(chaos = "none") ~label ~spec ~wall_sec ?(busy_sec = 0.)
    ?(sections = Json.Obj []) ?(metrics = []) ?(exports = []) () =
  let date = match date with Some d -> d | None -> Meta.timestamp () in
  let git = match git with Some g -> g | None -> Meta.git_info () in
  let git_sha, git_dirty =
    match git with Some (sha, dirty) -> (Some sha, dirty) | None -> (None, false)
  in
  {
    id; kind; date; git_sha; git_dirty; seed; scale; queue; workers;
    sim_jobs; topology; numa; accounting; chaos; label;
    spec_digest = canonical_digest spec; wall_sec; busy_sec; sections;
    metrics; exports;
  }

(* ----- JSON ----- *)

let seed_json s =
  if Int64.of_int (Int64.to_int s) = s then Json.Int (Int64.to_int s)
  else Json.String (Int64.to_string s)

let seed_of_json = function
  | Json.Int i -> Int64.of_int i
  | Json.String s -> (
    match Int64.of_string_opt s with
    | Some v -> v
    | None -> raise (Json.Parse_error "bad seed"))
  | Json.Float f when Float.is_integer f -> Int64.of_float f
  | _ -> raise (Json.Parse_error "bad seed")

let to_json r =
  Json.Obj
    [
      ("record", Json.Int 1);
      ("id", Json.String r.id);
      ("kind", Json.String r.kind);
      ("date", Json.String r.date);
      ( "git_sha",
        match r.git_sha with Some s -> Json.String s | None -> Json.Null );
      ("git_dirty", Json.Bool r.git_dirty);
      ("seed", seed_json r.seed);
      ("scale", Json.Float r.scale);
      ("queue", Json.String r.queue);
      ("workers", Json.Int r.workers);
      ("sim_jobs", Json.Int r.sim_jobs);
      ("topology", Json.String r.topology);
      ("numa", Json.Bool r.numa);
      ("accounting", Json.String r.accounting);
      ("chaos", Json.String r.chaos);
      ("label", Json.String r.label);
      ("spec_digest", Json.String r.spec_digest);
      ("wall_sec", Json.Float r.wall_sec);
      ("busy_sec", Json.Float r.busy_sec);
      ("sections", r.sections);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics) );
      ("exports", Json.List (List.map (fun p -> Json.String p) r.exports));
    ]

let opt_string key v ~default =
  match Json.member key v with
  | Some (Json.String s) -> s
  | Some _ | None -> default

let opt_float key v ~default =
  match Json.member key v with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some _ | None -> default

let opt_int key v ~default =
  match Json.member key v with
  | Some (Json.Int i) -> i
  | Some _ | None -> default

let opt_bool key v ~default =
  match Json.member key v with
  | Some (Json.Bool b) -> b
  | Some _ | None -> default

let of_json v =
  (match Json.member "record" v with
  | Some (Json.Int _) -> ()
  | Some _ | None ->
    raise (Json.Parse_error "not a registry record (no \"record\" field)"));
  let req key = Json.get key v ~of_:Json.to_string_v in
  {
    id = req "id";
    kind = req "kind";
    date = req "date";
    git_sha =
      (match Json.member "git_sha" v with
      | Some (Json.String s) -> Some s
      | Some Json.Null | None -> None
      | Some _ -> raise (Json.Parse_error "bad git_sha"));
    git_dirty = opt_bool "git_dirty" v ~default:false;
    seed = Json.get "seed" v ~of_:seed_of_json;
    scale = opt_float "scale" v ~default:1.;
    queue = opt_string "queue" v ~default:"wheel";
    workers = opt_int "workers" v ~default:1;
    sim_jobs = opt_int "sim_jobs" v ~default:1;
    topology = opt_string "topology" v ~default:"";
    numa = opt_bool "numa" v ~default:false;
    accounting = opt_string "accounting" v ~default:"precise";
    chaos = opt_string "chaos" v ~default:"none";
    label = opt_string "label" v ~default:"";
    spec_digest = opt_string "spec_digest" v ~default:"";
    wall_sec = opt_float "wall_sec" v ~default:0.;
    busy_sec = opt_float "busy_sec" v ~default:0.;
    sections =
      (match Json.member "sections" v with
      | Some (Json.Obj _ as s) -> s
      | Some _ | None -> Json.Obj []);
    metrics =
      (match Json.member "metrics" v with
      | Some (Json.Obj fields) ->
        List.map (fun (k, x) -> (k, Json.to_float x)) fields
      | Some _ | None -> []);
    exports =
      (match Json.member "exports" v with
      | Some (Json.List items) -> List.map Json.to_string_v items
      | Some _ | None -> []);
  }

let section r name = Json.member name r.sections
