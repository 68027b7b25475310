(** The VMM core: owns run queues, the PCPU-to-VCPU assignment, credit
    burning and online-time accounting, and drives a pluggable
    scheduler from the machine's slot/period events.

    Responsibility split: the scheduler decides {e which} VCPU runs
    where; the core performs context switches, charges credit for time
    actually run, clears boost on preemption, and keeps the state
    invariants (a [Running] VCPU is on exactly one PCPU; a [Ready]
    VCPU is in exactly one run queue; a [Blocked] VCPU is in none). *)

type t

type invariant_mode =
  | Off  (** no runtime checking (the default) *)
  | Record  (** log violations, keep running *)
  | Raise  (** raise {!Invariant_violation} on the first violation *)

type accounting =
  | Precise
      (** span-exact charging at every span end (the default, and the
          theft defense): a VCPU pays for exactly the cycles it ran *)
  | Sampled
      (** Xen-faithful periodic-tick debiting: whoever occupies the
          PCPU at each credit tick pays one full tick quantum,
          regardless of how long it actually ran. Reproduces the
          Zhou et al. tick-dodging vulnerability. *)

val accounting_name : accounting -> string
val accounting_of_name : string -> accounting option
(** Recognises ["precise"] and ["sampled"] (case-insensitive). *)

exception Invariant_violation of string

val create :
  ?work_conserving:bool ->
  ?accounting:accounting ->
  ?watchdog:Watchdog.params ->
  ?numa:Sched_intf.numa ->
  ?domain_id_base:int ->
  ?vcpu_id_base:int ->
  Sim_hw.Machine.t ->
  sched:Sched_intf.maker ->
  t
(** [work_conserving] defaults to [true]; [accounting] to [Precise]
    (byte-identical to builds without the accounting knob).
    [watchdog] (default off) arms the gang scheduler's coscheduling
    watchdog — see {!Watchdog}. [numa] (default off) arms the NUMA
    host model: schedulers prefer same-socket steals and cross-socket
    relocations charge a cold-cache penalty at the next accounting —
    see {!Sched_intf.numa}. [domain_id_base]/[vcpu_id_base] (default
    0) seed the id counters — decoupled sub-hosts use disjoint bases
    so domain and VCPU ids stay globally unique when domains migrate
    between hosts. *)

val accounting : t -> accounting

val engine : t -> Sim_engine.Engine.t

val metrics : t -> Sim_obs.Metrics.t
(** The simulation's metrics registry. Created per-Vmm (never
    global) with standing gauges over the engine ([events_fired],
    [pending_events]), hardware (IPI and tick-suppression tallies)
    and VMM ([ctx_switches], [ple_exits], [invariant_violations],
    per-PCPU run-queue depths); subsystems downstream (guest
    monitors, fault injector, watchdog) register theirs here too. *)

val cpu_model : t -> Sim_hw.Cpu_model.t
val pcpu_count : t -> int

val create_domain :
  t ->
  ?concurrent_type:bool ->
  name:string ->
  weight:int ->
  vcpus:int ->
  unit ->
  Domain.t
(** Create a domain whose VCPUs start [Blocked] with homes assigned
    round-robin across PCPUs. Must be called before {!start}. *)

val domains : t -> Domain.t list
(** In creation/attach order. After {!start} this is a field read,
    except that the first read after an {!attach_domain} or
    {!detach_domain} rebuilds the list once. *)

val start : t -> unit
(** Install machine handlers and begin the slot/period event streams.
    Call after all domains exist; the simulation then advances by
    running the engine. *)

val vcpu_wake : t -> Vcpu.t -> unit
(** Guest signal: a [Blocked] VCPU has runnable work. No-op when not
    blocked. *)

val vcpu_block : t -> Vcpu.t -> unit
(** Guest signal: the calling VCPU (must be [Running]) halts. The
    guest is {e not} called back via [on_preempted] — it initiated the
    block and is expected to have saved its own state. *)

val do_vcrd_op : t -> Domain.t -> Domain.vcrd -> unit
(** The paper's hypercall: update a domain's VCRD and notify the
    scheduler on change. *)

val pause_loop_exit : t -> Vcpu.t -> unit
(** Hardware signal: the VCPU spent a full PLE window busy-spinning.
    Forwarded to the scheduler's [on_ple] handler (the out-of-VM
    detection path); counts are available via {!ple_exits}. *)

val current_on : t -> int -> Vcpu.t option

val now : t -> int

(** {2 Decoupled-VMM domain migration}

    A sub-host shard steals load by moving a whole quiescent domain —
    VCRD state, credit and counters travel inside the {!Domain.t} —
    to another host. These calls are only legal on a domain with no
    [Running] VCPU; the caller additionally owns the guest-kernel and
    scheduler quiescence checks ({!sched_migratable} is the
    scheduler-state part). *)

val sched_migratable : t -> Domain.t -> bool
(** Whether the scheduler holds no pending state (armed windows,
    in-flight coscheduling IPIs, watchdog audits, boosts) for the
    domain — see {!Sched_intf.t.migratable}. *)

val detach_domain : t -> Domain.t -> unit
(** Remove the domain from this host: Ready VCPUs leave their run
    queues, the accounting base entry is dropped, and the domain's
    credit leaves the conservation ledger. Raises [Invalid_argument]
    if a VCPU is [Running] or the domain is not on this host. *)

val attach_domain : t -> Domain.t -> unit
(** Adopt a detached domain (legal after {!start}): VCPUs are
    re-homed deterministically onto this host's PCPUs, Ready ones
    enter their new home queues, the domain's credit joins the
    conservation ledger, and its accounting window starts at its
    current online total. *)

(** {2 Accounting} *)

val reset_accounting : t -> unit
(** Restart the measurement window for {!online_rate} and
    {!idle_fraction}. *)

val online_rate : t -> Domain.t -> float
(** Measured per-VCPU online rate of the domain over the current
    accounting window (counts open online spans). *)

val domain_online_cycles : t -> Domain.t -> int
(** Cumulative online cycles across the domain's VCPUs since creation,
    including open online spans — the guest-consumed CPU time the
    Monitoring Module meters its VCRD windows in. *)

val idle_fraction : t -> float
(** Fraction of PCPU time spent idle over the accounting window. *)

val attained_cycles : t -> Domain.t -> int
(** Online cycles the domain attained over the current accounting
    window (counts open spans). *)

val entitled_cycles : t -> Domain.t -> int
(** The domain's proportional-share entitlement over the window:
    Eq.(2)'s expected per-VCPU online rate times elapsed time and
    VCPU count. Attained, entitled and their excess (theft, the
    quantity a scheduler attack maximises) are also exported per VM
    as the [vmm/{attained,entitled,theft}_cycles] gauges. *)

val ctx_switches : t -> int

val ple_exits : t -> int
(** Total pause-loop exits delivered. *)

val check_invariants : t -> (unit, string) result
(** Verify the Running/Ready/Blocked structural invariants (plus
    nothing-runs-on-an-offline-PCPU); used by tests and property
    checks, and by the periodic runtime checker. *)

(** {2 Resilience} *)

val set_invariant_mode : t -> invariant_mode -> unit
(** When not [Off], every accounting period (after credit assignment)
    the VMM audits: the structural invariants, per-VCPU credit bounds
    (floor to cap), credit conservation (the system-wide credit sum
    may grow by at most one period's issue plus rounding slack between
    periods), and each run queue's internal consistency. *)

val invariant_mode : t -> invariant_mode

val invariant_violation_count : t -> int

val invariant_violations : t -> string list
(** Recorded violation messages, oldest first (bounded to the first
    1000; the count keeps going). *)

val set_vcrd_filter : t -> (Domain.t -> Domain.vcrd -> Domain.vcrd option) -> unit
(** Fault-injection hook on the VCRD hypercall channel: the filter
    sees each report before it lands and may rewrite it (corruption)
    or return [None] (report lost in transit). *)

val sched_counters : t -> (string * int) list
(** The active scheduler's health counters (the gang watchdog's
    launches/timeouts/demotions); [[]] for schedulers without any. *)
