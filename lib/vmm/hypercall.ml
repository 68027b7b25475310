type stats = { to_high : int; to_low : int }

type t = { mutable vmm : Vmm.t; mutable to_high : int; mutable to_low : int }

let create vmm = { vmm; to_high = 0; to_low = 0 }

let vmm t = t.vmm

(* Domain migration re-points the guest's hypercall channel at its new
   host; the call tallies travel with the channel. *)
let retarget t ~vmm = t.vmm <- vmm

let do_vcrd_op t dom vcrd =
  (match vcrd with
  | Domain.High -> t.to_high <- t.to_high + 1
  | Domain.Low -> t.to_low <- t.to_low + 1);
  Vmm.do_vcrd_op t.vmm dom vcrd

let stats (t : t) = { to_high = t.to_high; to_low = t.to_low }
