(** One run-registry record: the metadata-stamped result of a single
    [run]/[experiment]/[bench]/[check]/[theft] invocation.

    A record carries (a) the invocation's identity — git sha + dirty
    flag, seed, scale, queue backend, workers, [--sim-jobs],
    topology, accounting mode, chaos profile, and a canonical digest
    of the invocation spec; (b) wall/busy timings; (c) metric
    {e sections} — [runs]/[micro]/[fairness]/[profile] from the bench
    harness (which writes this same record for [--json]), [check]
    from SimCheck, [cluster] from cluster runs; (d) a flat key-metric
    snapshot; and (e) pointers to any Obs exports written alongside
    the run.

    Records survive [of_json (to_json r)] exactly, and
    {!canonical_digest} is invariant under object-field reordering
    (objects are digested with sorted keys). *)

type t = {
  id : string;  (** registry filename stem, unique per invocation *)
  kind : string;  (** run | experiment | bench | check | theft *)
  date : string;  (** local ["YYYY-MM-DDTHH:MM:SS"] *)
  git_sha : string option;
  git_dirty : bool;
  seed : int64;
  scale : float;
  queue : string;  (** event-queue backend name *)
  workers : int;  (** Pool worker domains *)
  sim_jobs : int;
  topology : string;  (** ["SxC"] *)
  numa : bool;
  accounting : string;
  chaos : string;  (** fault profile name; ["none"] when clean *)
  label : string;  (** human summary: figure ids, VM list, ... *)
  spec_digest : string;  (** {!canonical_digest} of the invocation spec *)
  wall_sec : float;
  busy_sec : float;
  sections : Sim_obs.Json.t;  (** [Obj] of metric sections *)
  metrics : (string * float) list;  (** flat key-metric snapshot *)
  exports : string list;  (** paths of Obs trace/metrics exports *)
}

val make :
  id:string ->
  kind:string ->
  ?date:string ->
  ?git:(string * bool) option ->
  seed:int64 ->
  scale:float ->
  queue:string ->
  workers:int ->
  ?sim_jobs:int ->
  ?topology:string ->
  ?numa:bool ->
  ?accounting:string ->
  ?chaos:string ->
  label:string ->
  spec:Sim_obs.Json.t ->
  wall_sec:float ->
  ?busy_sec:float ->
  ?sections:Sim_obs.Json.t ->
  ?metrics:(string * float) list ->
  ?exports:string list ->
  unit ->
  t
(** [date] defaults to {!Meta.timestamp}, [git] to {!Meta.git_info};
    [spec_digest] is computed from [spec]. *)

val to_json : t -> Sim_obs.Json.t
val of_json : Sim_obs.Json.t -> t
(** Raises {!Sim_obs.Json.Parse_error} on a malformed record or on
    any value without the ["record"] marker field. *)

val canonical_digest : Sim_obs.Json.t -> string
(** Hex MD5 of the value's canonical form: object fields sorted
    recursively, compact printing, non-integral floats in [%.17g] —
    stable across field reordering, whitespace and the JSON printer's
    float form. *)

val section : t -> string -> Sim_obs.Json.t option
(** [section r "runs"] — one metric section, when present. *)
