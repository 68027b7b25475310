(** Scheduler-attack guest workloads (Zhou et al.-style tick evasion).

    Under sampled accounting ([Vmm.Sampled], Xen's historical
    discipline) the periodic tick debits a full quantum from whichever
    VCPU occupies the PCPU at the tick instant — so a guest that
    arranges to be asleep at every tick runs for free, keeps maximal
    credit, and starves honest tenants. These workloads model the
    three classic shapes. All are deterministic per scenario seed
    (pure compute/sleep, no random chunks) and run forever.

    Under precise (span-exact) accounting the same guests gain
    nothing: every computed cycle is billed, so their attainment stays
    within their entitlement. That contrast is the theft figure and
    the SimCheck entitlement oracle. *)

val tick_dodge : ?threads:int -> slot_cycles:int -> unit -> Workload.t
(** Burn just under one tick interval (19/20 slot), then block across
    the tick. On a busy host the wake sits queued until the next
    slice-boundary reschedule — which coincides with a credit tick, so
    every burst starts immediately after the previous occupant was
    debited and closes before the next debit. A leading sleep skips
    the one misaligned dispatch at the scenario's t=0 start. *)

val cycle_steal : ?threads:int -> slot_cycles:int -> unit -> Workload.t
(** Sub-tick bursts (~1/2 slot) separated by short sleeps — lower
    duty than the dodger, but each burst is brief enough that the
    guest is rarely the tick occupant. Models an attacker hiding
    inside interactive-looking behaviour. *)

val launder_half :
  ?threads:int -> slot_cycles:int -> phased:bool -> unit -> Workload.t
(** One side of a laundering pair: coordinated laundering across two
    colocated VMs, with complementary compute/sleep phases ([phased]
    shifts the start by half a slot) so the pair hands the PCPU back
    and forth around each tick. Each VM's own attainment looks modest;
    the theft only shows when the pair is accounted together. Install
    the [phased:false] and [phased:true] halves in two different VMs
    on the same host. *)

val is_attack : Workload.t -> bool
(** True for workloads produced by this module (recognised by name). *)
