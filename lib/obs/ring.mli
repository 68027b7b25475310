(** Bounded ring buffer with drop accounting, the storage behind
    {!Trace} (the event sink): once [cap] elements are held, each
    further push overwrites the oldest element and increments
    {!dropped}. *)

type 'a t

val create : cap:int -> 'a t
(** A ring holding at most [cap] elements. [cap = 0] drops
    everything. The backing array is allocated on the first push.
    Raises [Invalid_argument] on a negative capacity. *)

val capacity : 'a t -> int

val length : 'a t -> int

val dropped : 'a t -> int
(** Elements overwritten (or refused by a zero-capacity ring) over the
    ring's lifetime; {!clear} does not reset it. *)

val push : 'a t -> 'a -> unit

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest first. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
(** Empty the ring; the drop count survives. *)
