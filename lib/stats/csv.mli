(** Minimal CSV output (RFC-4180 quoting) for exporting figure data. *)

val escape : string -> string
(** Quote a field if it contains commas, quotes or newlines. *)

val to_string : string list list -> string

val of_series : Series.t list -> string list list
(** Header row (x name + labels) followed by one row per distinct x. *)
