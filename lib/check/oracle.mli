(** The oracle catalogue: pluggable pass/fail judges over one
    completed run's observable record.

    Every oracle consumes the same {!input} — a plain record that a
    test can fabricate by hand (each oracle's unit test builds a
    known-violating input without running a simulation). {!Case}
    assembles the real thing from a finished scenario.

    Soundness over completeness: an oracle that cannot be sure
    returns [Skip] (fault profiles legitimately break timing
    assumptions; a dropped trace ring hides evidence). A [Fail] is
    designed to always be a real bug. *)

type vm_obs = {
  o_name : string;
  o_domain : int;  (** domain id *)
  o_vcpus : int array;  (** the domain's VCPU ids *)
  o_weight : int;
  o_concurrent : bool;  (** static CON marking *)
  o_final_credits : int array;  (** per-VCPU, at window end *)
  o_online_rate : float;  (** measured over the window *)
  o_expected_online : float;  (** Equation (2) *)
  o_attacker : bool;
      (** workload is one of the [Sim_workloads.Attack] guests (the
          [W_attack_*] descriptors) *)
}

type input = {
  pcpus : int;
  slot_cycles : int;
  slots_per_period : int;
  work_conserving : bool;
  clean : bool;  (** no fault profile *)
  sched : Asman.Config.sched_kind;
  check_fairness : bool;  (** generator-certified fairness shape *)
  accounting : Sim_vmm.Vmm.accounting;
  check_entitlement : bool;  (** generator-certified attack shape *)
  started : int;  (** window start, cycles *)
  finished : int;  (** window end, cycles *)
  entries : Sim_obs.Trace.entry list;  (** the armed categories, oldest first *)
  trace_dropped : int;  (** ring overflow count; gates trace oracles *)
  dom0 : int;
  dom0_vcpus : int array;
  vms : vm_obs list;
  runtime_violations : int;  (** lib/vmm per-period checker count *)
  runtime_messages : string list;
  structural : (unit, string) result;  (** final {!Sim_vmm.Vmm.check_invariants} *)
  probe_errors : string list;  (** mid-run structural sweeps that failed *)
}

type verdict = Pass | Skip of string | Fail of string

type t = { name : string; check : input -> verdict }

val invariants : t
(** Runtime per-period checker, mid-run probes and final structural
    audit all clean — includes no-lost/duplicated-VCPUs across
    runqueue relocations. *)

val credit_bounds : t
(** Final per-VCPU credit within [[floor, cap]] of [lib/vmm/credit.ml]. *)

val credit_burn : t
(** Time run is paid for: credit billed in [Credit_account] events
    within factor 2 of the timeline-measured guest online time's
    worth. Clean runs with enough signal only. *)

val proportionality : t
(** Equation (2) CPU-share tolerance on fairness-shape cases. *)

val entitlement : t
(** Attack containment on attack-shape cases under precise
    accounting: the attacker VMs' aggregate attained/entitled ratio
    must not dominate the victims' (relative, because work-conserving
    slack makes absolute bands unsound; aggregated, to catch the
    laundering pair). *)

val gang_atomicity : t
(** Every trace-provably-Ready sibling runs within slot/4 of its gang
    launch, on clean single-gang asman/con runs. *)

val vcpu_conservation : t
(** No VCPU on two PCPUs at once; no unknown VCPU ids scheduled. *)

val monotonic_time : t
val trace_wellformed : t

type failure = { oracle : string; message : string }

val run_all : input -> failure list
(** Failures only ([Pass] and [Skip] drop out), in catalogue order. *)
