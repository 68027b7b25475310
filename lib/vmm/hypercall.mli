(** The guest-to-VMM hypercall surface.

    The paper adds a single hypercall, [do_vcrd_op], through which the
    guest Monitoring Module reports VCRD changes. This module wraps it
    with call statistics, mirroring how the prototype instruments the
    Xen hypercall path. Each guest kernel owns one channel, for its
    own domain. *)

type stats = { to_high : int; to_low : int }

type t

val create : Vmm.t -> t

val vmm : t -> Vmm.t

val retarget : t -> vmm:Vmm.t -> unit
(** Re-point the channel at the domain's new host after a
    decoupled-VMM migration; the call tallies travel with it. *)

val do_vcrd_op : t -> Domain.t -> Domain.vcrd -> unit
(** Forwards to {!Vmm.do_vcrd_op} and counts the call. *)

val stats : t -> stats
(** Cumulative calls through this channel. *)
