(** Guest thread programs.

    A program is the op-level model of a benchmark thread: compute
    chunks interleaved with kernel synchronization (spinlocks,
    semaphores, busy-wait barriers). {!make} compiles the op tree once
    into flat code, and a {!cursor} walks it as a resumable instruction
    stream — the guest kernel executes one instruction at a time and
    can be preempted between (or inside) instructions without losing
    position. *)

type op =
  | Compute of int  (** deterministic compute, in cycles *)
  | Compute_rand of { mean : int; cv : float }
      (** log-normal compute chunk drawn at execution time (per-thread
          imbalance) *)
  | Lock of int  (** acquire guest-kernel spinlock [id] *)
  | Unlock of int
  | Sem_wait of int
  | Sem_post of int
  | Barrier of int  (** arrive at barrier [id] and busy-wait *)
  | Mark  (** application-level completion marker (e.g. one
              SPECjbb transaction); counted by the kernel *)
  | Sleep of int
      (** block the thread for exactly this many cycles of simulated
          time (a guest timer sleep, not busy-wait). The primitive
          scheduler-attack guests use to dodge the accounting tick. *)
  | Repeat of int * op list  (** [Repeat (n, body)] runs [body] n times *)

(** An instruction's opcode; its operand is read with {!operand}. *)
type instr =
  | I_compute  (** operand: cycles *)
  | I_lock  (** operand: lock id *)
  | I_unlock
  | I_sem_wait  (** operand: semaphore id *)
  | I_sem_post
  | I_barrier  (** operand: barrier id *)
  | I_mark
  | I_sleep  (** operand: cycles *)
  | I_end  (** the program has finished *)

type t

val make : op list -> t
(** Raises [Invalid_argument] if any [Repeat] count or compute length
    is negative, a [Compute_rand] has non-positive mean, or a [Sleep]
    is non-positive. *)

val ops : t -> op list

val static_instr_count : t -> int
(** Total instructions one full execution emits (loops unrolled). *)

val total_compute_cycles : t -> int
(** Sum of compute cycles using [mean] for random chunks — the ideal
    single-run CPU demand of the program. *)

type cursor
(** A position in the program's shared code: an integer program
    counter plus one integer iteration counter per loop. Advancing it
    writes only integers. *)

val cursor : t -> cursor
(** A fresh cursor at the start of the program. *)

val reset : cursor -> unit

val next : cursor -> rng:Sim_engine.Rng.t -> instr
(** Advance and return the next instruction's opcode; [I_end] when the
    program has finished. [rng] materializes [Compute_rand] chunks.
    Allocates nothing: the opcode is a constant and the operand is
    left in the cursor. *)

val operand : cursor -> int
(** The operand of the instruction {!next} last returned (0 for
    [I_mark] and [I_end]). *)

val locks_referenced : t -> int list
(** Sorted, distinct lock ids used by [Lock]/[Unlock]. *)

val barriers_referenced : t -> int list

val semaphores_referenced : t -> int list
