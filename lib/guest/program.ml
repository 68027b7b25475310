type op =
  | Compute of int
  | Compute_rand of { mean : int; cv : float }
  | Lock of int
  | Unlock of int
  | Sem_wait of int
  | Sem_post of int
  | Barrier of int
  | Mark
  | Sleep of int
  | Repeat of int * op list

type instr =
  | I_compute
  | I_lock
  | I_unlock
  | I_sem_wait
  | I_sem_post
  | I_barrier
  | I_mark
  | I_sleep
  | I_end

type t = { ops : op list }

let rec validate ops =
  List.iter
    (fun op ->
      match op with
      | Compute n -> if n < 0 then invalid_arg "Program: negative compute"
      | Compute_rand { mean; cv } ->
        if mean <= 0 then invalid_arg "Program: non-positive compute mean";
        if cv < 0. then invalid_arg "Program: negative cv"
      | Sleep n -> if n <= 0 then invalid_arg "Program: non-positive sleep"
      | Repeat (n, body) ->
        if n < 0 then invalid_arg "Program: negative repeat count";
        validate body
      | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark -> ())
    ops

let make ops =
  validate ops;
  { ops }

let ops t = t.ops

let rec count_ops ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Repeat (n, body) -> acc + (n * count_ops body)
      | Compute _ | Compute_rand _ | Lock _ | Unlock _ | Sem_wait _ | Sem_post _
      | Barrier _ | Mark | Sleep _ ->
        acc + 1)
    0 ops

let static_instr_count t = count_ops t.ops

let rec compute_cycles ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Compute n -> acc + n
      | Compute_rand { mean; _ } -> acc + mean
      | Repeat (n, body) -> acc + (n * compute_cycles body)
      | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark
      | Sleep _ ->
        acc)
    0 ops

let total_compute_cycles t = compute_cycles t.ops

(* The cursor is a stack of frames: the ops remaining at each nesting
   level plus the iterations left for that level's loop body. *)
type frame = { mutable rest : op list; body : op list; mutable iters_left : int }

type cursor = {
  program : t;
  mutable stack : frame list;
  mutable operand : int;  (** of the instruction [next] last returned *)
}

let cursor program =
  {
    program;
    stack = [ { rest = program.ops; body = []; iters_left = 0 } ];
    operand = 0;
  }

let reset c =
  c.stack <- [ { rest = c.program.ops; body = []; iters_left = 0 } ]

let operand c = c.operand

(* The opcode is a constant constructor and the operand goes to a
   cursor field, so handing out an instruction allocates nothing. *)
let[@inline] emit c instr operand =
  c.operand <- operand;
  instr

let rec next c ~rng =
  match c.stack with
  | [] -> emit c I_end 0
  | frame :: parents -> begin
    match frame.rest with
    | [] ->
      if frame.iters_left > 0 then begin
        frame.iters_left <- frame.iters_left - 1;
        frame.rest <- frame.body;
        next c ~rng
      end
      else begin
        c.stack <- parents;
        next c ~rng
      end
    | op :: rest ->
      frame.rest <- rest;
      (match op with
      | Compute n -> emit c I_compute n
      | Compute_rand { mean; cv } ->
        let n =
          Sim_engine.Rng.lognormal_cv rng ~mean:(float_of_int mean) ~cv
        in
        emit c I_compute (Int.max 1 (int_of_float n))
      | Lock id -> emit c I_lock id
      | Unlock id -> emit c I_unlock id
      | Sem_wait id -> emit c I_sem_wait id
      | Sem_post id -> emit c I_sem_post id
      | Barrier id -> emit c I_barrier id
      | Mark -> emit c I_mark 0
      | Sleep n -> emit c I_sleep n
      | Repeat (n, body) ->
        if n = 0 || body = [] then next c ~rng
        else begin
          c.stack <- { rest = body; body; iters_left = n - 1 } :: c.stack;
          next c ~rng
        end)
  end

let referenced ~f t =
  let rec collect acc ops =
    List.fold_left
      (fun acc op ->
        match f op with
        | Some id -> id :: acc
        | None -> ( match op with Repeat (_, body) -> collect acc body | _ -> acc))
      acc ops
  in
  List.sort_uniq compare (collect [] t.ops)

let locks_referenced t =
  referenced t ~f:(function Lock id | Unlock id -> Some id | _ -> None)

let barriers_referenced t =
  referenced t ~f:(function Barrier id -> Some id | _ -> None)

let semaphores_referenced t =
  referenced t ~f:(function Sem_wait id | Sem_post id -> Some id | _ -> None)
