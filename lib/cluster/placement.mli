(** Pluggable VM placement for the cluster layer.

    A placement decision sees only the controller's bookkeeping — an
    array of {!host_view}s tracking each host's slot capacity, current
    occupancy (residents plus in-flight reservations) and residents'
    predicted exit times — never host-internal simulator state, so
    decisions are identical at any worker count. *)

type policy =
  | First_fit  (** lowest-id feasible host (bin-packing baseline) *)
  | Best_fit  (** feasible host with the tightest remaining capacity *)
  | Lifetime_aware
      (** LAVA-style scorer: minimize the extension of the host's
          predicted drain window plus a load-spreading penalty *)

val policy_name : policy -> string
val policy_of_name : string -> policy option

type resident = {
  r_name : string;
  r_vcpus : int;
  mutable r_predicted_end_sec : float;
      (** doubled in place when the prediction expires and the VM is
          still running (LAVA's repredict adaptation) *)
}

type host_view = {
  h_id : int;
  h_capacity : int;
  mutable h_used : int;
  mutable h_peak_used : int;
  mutable h_residents : resident list;
}

val make_view : id:int -> capacity:int -> host_view
val feasible : host_view -> vcpus:int -> bool

val admit : host_view -> resident -> unit
val remove : host_view -> resident -> unit
(** [remove] matches the resident physically ([==]); raises
    [Invalid_argument] if occupancy would go negative. *)

val reserve : host_view -> vcpus:int -> unit
val release : host_view -> vcpus:int -> unit
(** Capacity holds for decisions whose VM is still in flight (initial
    copy, stop-and-copy migration), so an arrival landing mid-copy
    sees the true future occupancy. *)

val choose :
  policy ->
  host_view array ->
  vcpus:int ->
  now_sec:float ->
  predicted_end_sec:float ->
  penalty_sec:float ->
  int option
(** The chosen host id among feasible views, or [None] when no host
    fits. Deterministic; ties break to the lowest host id. *)
