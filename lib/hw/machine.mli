(** Physical machine: PCPUs with per-CPU slot clocks and IPI delivery.

    Each PCPU fires a recurring {e slot-boundary} event every
    [slot_cycles]. When [stagger] is on (the realistic default — Xen's
    per-CPU timers are not aligned), PCPU [k]'s boundaries are offset
    by [k * slot / pcpu_count], which de-synchronizes sibling VCPUs of
    a VM and is a root cause of the paper's degradation. The scheduler
    built on top registers a handler for these boundaries and uses
    {!send_ipi} for coscheduling. *)

type t

type ipi_fate = Deliver | Drop | Delay of int
(** Decision of an installed IPI filter: deliver normally, silently
    lose the interrupt, or add [Delay] extra cycles on top of the
    model latency. *)

val create :
  ?stagger:bool ->
  Sim_engine.Engine.t ->
  Cpu_model.t ->
  Topology.t ->
  t
(** [stagger] defaults to [true]. *)

val engine : t -> Sim_engine.Engine.t
val cpu_model : t -> Cpu_model.t
val topology : t -> Topology.t
val pcpu_count : t -> int

val set_slot_handler : t -> (int -> unit) -> unit
(** [set_slot_handler t f] installs [f pcpu], called at each of
    [pcpu]'s slot boundaries. Must be set before {!start}. *)

val set_period_handler : t -> (unit -> unit) -> unit
(** Handler for the credit-assignment event, fired by the bootstrap
    PCPU (PCPU 0) every [slots_per_period] slots, just before PCPU 0's
    own slot handler for that boundary. *)

val start : t -> unit
(** Begin firing slot and period events. The first period event fires
    at time [phase 0] so credits exist before any scheduling decision.
    Raises [Failure] if no slot handler is installed or if called
    twice. *)

val phase : t -> int -> int
(** [phase t pcpu] is the offset of [pcpu]'s first slot boundary. *)

val next_boundary : t -> pcpu:int -> after:int -> int
(** First slot boundary of [pcpu] strictly greater than [after]. *)

val send_ipi : t -> src:int -> dst:int -> (unit -> unit) -> unit
(** Deliver a callback on [dst] after the model's IPI latency
    (doubled when [src] and [dst] sit on different sockets — the
    interconnect hop). Self-IPIs are permitted. *)

val ipis_sent : t -> int
(** Total IPIs delivered or in flight (monotone counter). *)

val ipis_cross_socket : t -> int
(** How many of them crossed a socket boundary. *)

(** {1 Fault-injection surface}

    Hooks used by [Sim_faults.Injector]. None are installed by
    default, and with none installed the machine's event stream is
    byte-identical to a build without this surface. *)

val set_ipi_filter : t -> (src:int -> dst:int -> ipi_fate) -> unit
(** Intercept every IPI before delivery. IPIs to an offline
    destination are dropped before the filter is consulted. *)

val set_tick_jitter : t -> (pcpu:int -> int) -> unit
(** [set_tick_jitter t f] adds [max 0 (f ~pcpu)] cycles of skew to
    each slot-tick interval of [pcpu] (the period/accounting timer is
    not jittered — it models the VMM's software clock). Must be
    called before {!start}; raises [Failure] afterwards. *)

val set_hotplug_handler : t -> (pcpu:int -> online:bool -> unit) -> unit
(** Called from {!set_pcpu_online} after the state flips, so the VMM
    can evacuate (offline) or re-integrate (online) the PCPU. *)

val pcpu_online : t -> int -> bool

val pcpu_stalled : t -> int -> bool

val online_count : t -> int

val set_pcpu_stalled : t -> pcpu:int -> bool -> unit
(** A stalled PCPU's slot timer stops calling the scheduler (ticks
    are counted in {!ticks_suppressed}) but it still receives IPIs —
    the lost-timer fault, distinct from being offline. *)

val set_pcpu_online : t -> pcpu:int -> bool -> unit
(** Offline: ticks suppressed and inbound IPIs dropped. No-op if the
    state already matches. Raises [Invalid_argument] when asked to
    offline the last online PCPU. *)

val ipis_dropped : t -> int
(** IPIs lost to the filter or to an offline destination. *)

val ipis_delayed : t -> int

val ticks_suppressed : t -> int
(** Slot ticks swallowed on stalled/offline PCPUs. *)
