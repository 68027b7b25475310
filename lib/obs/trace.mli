(** Structured event tracing: a bounded ring-buffer sink of typed,
    timestamped events with per-category enable masks.

    The overhead contract: with tracing disabled (the default,
    mask 0), the only cost at an instrumented call site is the
    {!on} guard — one load, one mask, one branch — because call
    sites are written

    {[ if Trace.on tr Trace.Sched then
         Trace.emit tr ~now (Trace.Sched_switch { ... }) ]}

    so the event payload is never even allocated. *)

(** {1 Categories} *)

type category =
  | Sched  (** context switches, idling, blocking *)
  | Credit  (** credit accounting ticks *)
  | Vcrd  (** VCRD High/Low transitions *)
  | Gang  (** coscheduling launches, acks, watchdog actions *)
  | Ipi  (** inter-processor interrupts *)
  | Spin  (** over-threshold spinlock waits, PLE exits *)
  | Fault  (** injected faults *)
  | Invariant  (** runtime invariant violations *)

val cat_bit : category -> int
val categories : category list

val all_mask : int
(** Every category enabled. *)

val mask_of_string : string -> (int, string) result
(** Parse ["sched,gang"]-style comma-separated category lists;
    ["all"] means {!all_mask}. *)

(** {1 Events} — integer-only payloads so every subsystem can emit. *)

type event =
  | Sched_switch of { pcpu : int; vcpu : int; domain : int }
  | Sched_idle of { pcpu : int }
  | Sched_block of { pcpu : int; vcpu : int; domain : int }
  | Credit_account of { vcpu : int; domain : int; credit : int; burned : int }
  | Vcrd_change of { domain : int; high : bool }
  | Gang_launch of { domain : int; pcpu : int; ipis : int; retry : bool }
  | Gang_ack of { domain : int; pcpu : int }
  | Gang_timeout of { domain : int; strikes : int }
  | Gang_retry of { domain : int; delay : int }
  | Gang_demote of { domain : int; until : int }
  | Ipi_sent of { src : int; dst : int; cross : bool }
  | Spin_overthreshold of {
      domain : int;
      vcpu : int;
      lock_id : int;
      wait : int;
      holder : int;  (** holder VCPU id at wait begin; -1 = unknown *)
    }
  | Fault_injected of { kind : int; pcpu : int; info : int }
  | Invariant_violation of { domain : int }
  | Ple_exit of { vcpu : int; domain : int }

(** Codes for [Fault_injected.kind]. *)

val fault_ipi_dropped : int
val fault_ipi_delayed : int
val fault_tick_suppressed : int
val fault_vcrd_dropped : int
val fault_vcrd_corrupted : int
val fault_pcpu_stall : int
val fault_pcpu_offline : int
val fault_pcpu_restore : int

type entry = { at : int; ev : event }

(** {1 The sink} *)

type t

val create : unit -> t
(** Disabled: mask 0, zero-capacity ring. *)

val default_cap : int

val enable : ?cap:int -> t -> mask:int -> unit
(** Set the category mask and (re)allocate the ring to [cap]
    (default {!default_cap}) if the capacity changes. *)

val on : t -> category -> bool
(** The one-branch hot-path guard. *)

val emit : t -> now:int -> event -> unit
(** Record unconditionally — call only under an {!on} guard. *)

val entries : t -> entry list
(** Oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events lost to ring overflow. *)

(** {1 Exporters} *)

val chrome_events_into :
  Buffer.t ->
  ?pid:int ->
  ?process_name:string ->
  ?vm_names:(int * string) list ->
  freq_hz:int ->
  pcpus:int ->
  t ->
  unit
(** Append this trace's Chrome [trace_event] objects (comma-separated,
    no brackets) so several scenarios can share one [traceEvents]
    array, each under its own [pid]. Tracks: tid 0..pcpus-1 are PCPU
    gantt rows ("X" slices reconstructed from Sched_* events); tid
    100+domain are per-VM instant tracks. [ts] is microseconds. *)
