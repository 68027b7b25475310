(** Coscheduling watchdog state for the gang scheduler's self-healing
    path.

    A coscheduling launch is {e tracked}: the gang scheduler records
    how many IPIs it sent and checks [ack_timeout] cycles later whether
    they all arrived. A missed check is a {e strike}; the launch is
    retried with doubling backoff up to [max_retries] times. Strikes
    accumulate until [fail_threshold], at which point the domain is
    {e demoted} — scheduled as plain Credit — for [probation] cycles,
    after which coscheduling is re-attempted with a clean slate. A
    fault-free run acks every launch and accrues no strikes; sustained
    IPI loss of any rate eventually trips the threshold. This module only keeps the bookkeeping
    (the per-domain state, held by the gang scheduler; the tallies
    live in the simulation's {!Sim_obs.Metrics} registry under
    subsystem ["watchdog"]); the policy lives in {!Sched_gang}. *)

type params = {
  ack_timeout : int;  (** cycles to wait for all IPI acks of a launch *)
  max_retries : int;  (** relaunch attempts per tracked launch *)
  backoff_base : int;  (** first retry delay; doubles per retry *)
  fail_threshold : int;  (** strikes (timed-out checks) before demotion *)
  probation : int;  (** demotion length in cycles *)
}

val default : Sim_hw.Cpu_model.t -> params
(** Thresholds scaled to the model's IPI latency and slot length so
    the fault-free simulator never trips them. *)

type dom_state = {
  mutable expected : int;
  mutable acks : int;
  mutable gen : int;
      (** Launch generation: acks carry the generation they were sent
          under, so a late ack from a superseded launch cannot satisfy
          the current one. *)
  mutable retries_left : int;
  mutable backoff : int;
  mutable check_pending : bool;
  mutable strikes : int;
  mutable demoted_until : int;
}

type t

val create : metrics:Sim_obs.Metrics.t -> params -> t
(** Registers the watchdog's counters in [metrics] (subsystem
    ["watchdog"]: [cosched_launches], [ipi_acks],
    [watchdog_timeouts], [watchdog_retries], [watchdog_demotions]). *)

val params : t -> params

val fresh : unit -> dom_state
(** The state of a domain never launched: nothing tracked, no
    strikes, never demoted. The gang scheduler keeps one per domain. *)

val demoted : dom_state -> now:int -> bool
(** The domain is on probation at cycle [now]. *)

val note_launch : t -> unit
val note_ack : t -> unit
val note_timeout : t -> unit
val note_retry : t -> unit

val note_demotion : t -> vm:string -> unit
(** Also bumps the per-VM [watchdog/demotions{vm=...}] counter so
    health reports can attribute demotions to domains. *)

val counter_list : t -> (string * int) list
(** Counters under stable names ([cosched_launches], [ipi_acks],
    [watchdog_timeouts], [watchdog_retries], [watchdog_demotions]);
    values read back from the registry. *)
