type vcrd = Low | High

type t = {
  id : int;
  name : string;
  weight : int;
  vcpus : Vcpu.t array;
  mutable vcrd : vcrd;
  concurrent_type : bool;
  mutable vcrd_transitions : int;
  mutable high_cycles : int;
  mutable high_since : int;
}

let make ?(concurrent_type = false) ~id ~name ~weight ~vcpus () =
  if weight <= 0 then invalid_arg "Domain.make: weight must be positive";
  if Array.length vcpus = 0 then invalid_arg "Domain.make: no vcpus";
  Array.iter
    (fun (v : Vcpu.t) ->
      if v.Vcpu.domain_id <> id then
        invalid_arg "Domain.make: vcpu belongs to another domain")
    vcpus;
  {
    id;
    name;
    weight;
    vcpus;
    vcrd = Low;
    concurrent_type;
    vcrd_transitions = 0;
    high_cycles = 0;
    high_since = 0;
  }

let vcpu_count t = Array.length t.vcpus

let set_vcrd t ~now v =
  if t.vcrd = v then false
  else begin
    (match (t.vcrd, v) with
    | Low, High ->
      t.vcrd_transitions <- t.vcrd_transitions + 1;
      t.high_since <- now
    | High, Low -> t.high_cycles <- t.high_cycles + (now - t.high_since)
    | Low, Low | High, High -> ());
    t.vcrd <- v;
    true
  end

let weight_proportion t ~all =
  let total = List.fold_left (fun acc d -> acc + d.weight) 0 all in
  if total = 0 then 0. else float_of_int t.weight /. float_of_int total

let expected_online_rate t ~all ~pcpus =
  let rate =
    float_of_int pcpus *. weight_proportion t ~all /. float_of_int (vcpu_count t)
  in
  Float.min 1.0 rate

let online_cycles t =
  Array.fold_left (fun acc (v : Vcpu.t) -> acc + v.Vcpu.online_cycles) 0 t.vcpus
