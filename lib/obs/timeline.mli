(** Per-PCPU scheduling timeline (gantt rows) derived from the
    [Sched] events of a trace. *)

type segment = {
  pcpu : int;
  vcpu : int;
  domain : int;
  start : int;
  stop : int;  (** exclusive; cycles *)
}

type t

val of_entries : ?stop_at:int -> pcpus:int -> Trace.entry list -> t
(** Reconstruct occupancy from [Sched_switch]/[Sched_idle]/
    [Sched_block]. A slice still open at the end is closed at
    [stop_at] (default: the last event's timestamp). *)

val segments : t -> segment list
(** All rows, ordered by start time then PCPU. *)

val running_intervals : t -> vcpu:int -> (int * int) list
(** When this VCPU held a PCPU, in time order. *)

val descheduled_in : t -> vcpu:int -> from_:int -> until:int -> int
(** Cycles within [[from_, until]] during which [vcpu] was not
    running on any PCPU. *)
