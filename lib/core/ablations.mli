(** Ablation studies: measure the contribution of each design choice
    called out in DESIGN.md by switching it off (or sweeping it) on
    the paper's headline workload (LU at a 22.2% online rate, plus
    other rates where relevant).

    Run them all with [asman_cli experiment ablations] or one
    by one through the CLI. Outcomes reuse the experiment report
    format. *)

type t = Experiments.t

val all : t list
(** - [ablate-gang]: the three gang mechanisms (IPI dispatch,
      solidarity, continuity) toggled individually;
    - [ablate-stagger]: per-PCPU phase skew on/off;
    - [ablate-grace]: guest busy-wait grace sweep (the Credit
      degradation calibration knob);
    - [ablate-learning]: the Roth-Erev estimator vs fixed window
      durations;
    - [ablate-threshold]: the over-threshold exponent delta;
    - [ablate-slice]: 10 ms vs 30 ms scheduling slices;
    - [ablate-llc]: topology-blind vs LLC-aware gang relocation;
    - [ablate-oov]: in-VM Monitoring Module vs out-of-VM PLE
      detection vs no detection. *)

val find : string -> t option

val ids : unit -> string list
