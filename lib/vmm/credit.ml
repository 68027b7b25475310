let default_credit_unit = 1000

let total_per_period ~pcpus ~slots_per_period ~credit_unit =
  pcpus * credit_unit * slots_per_period

let burn ~credit_unit ~slot_cycles ~run_cycles =
  if run_cycles < 0 then invalid_arg "Credit.burn: negative run_cycles";
  if run_cycles > slot_cycles then
    invalid_arg "Credit.burn: run_cycles exceeds slot";
  credit_unit * run_cycles / slot_cycles

let cap ~credit_unit ~slots_per_period = 2 * credit_unit * slots_per_period

let assign ~domains ~pcpus ~slots_per_period ~credit_unit ~work_conserving =
  let total =
    total_per_period ~pcpus ~slots_per_period ~credit_unit
  in
  let cap_v = cap ~credit_unit ~slots_per_period in
  List.iter
    (fun (d : Domain.t) ->
      let share = Domain.weight_proportion d ~all:domains in
      let inc = int_of_float (Float.round (float_of_int total *. share)) in
      let per_vcpu = inc / Domain.vcpu_count d in
      Array.iter
        (fun (v : Vcpu.t) ->
          v.Vcpu.credit <- Int.min cap_v (v.Vcpu.credit + per_vcpu);
          if not work_conserving then v.Vcpu.parked <- v.Vcpu.credit < 0)
        d.Domain.vcpus)
    domains
