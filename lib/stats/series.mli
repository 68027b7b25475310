(** Labeled data series: the unit of figure reproduction.

    Each paper figure is regenerated as one or more [Series.t] values
    (e.g. "LU run time under Credit" with x = VCPU online rate and
    y = seconds), rendered by {!Table} and {!Csv}. *)

type point = { x : float; y : float }

type t = { label : string; x_name : string; y_name : string; points : point list }

val make : label:string -> x_name:string -> y_name:string -> (float * float) list -> t

val points : t -> (float * float) list

val xs : t -> float list

val y_at : t -> float -> float option
(** [y_at s x] is the y value of the first point with that exact x. *)

val map_y : t -> f:(float -> float) -> t

val ratio : t -> t -> t
(** [ratio a b] divides [a]'s y values by [b]'s, matching points by x.
    Points with no x-match in [b] are dropped. Label is
    ["a/b"]. *)
