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

(* The op tree compiled once into flat code: one entry per
   instruction, plus a [C_loop]/[C_back] pair around each [Repeat]
   body. A loop that would emit nothing ([Repeat (0, _)], an empty
   body, or a body of such loops) compiles to no code at all: it draws
   nothing from the RNG either, so skipping it changes no stream. *)
type code =
  | C_compute  (** arg: cycles *)
  | C_compute_rand  (** arg: its index in [chunks] *)
  | C_lock
  | C_unlock
  | C_sem_wait
  | C_sem_post
  | C_barrier
  | C_mark
  | C_sleep
  | C_loop  (** arg: loop index, arg2: iteration count *)
  | C_back  (** arg: loop index, arg2: the body's first pc *)
  | C_end

(* A [Compute_rand] chunk. The record mixes an int and a float, so
   its [cv] stays boxed and a draw hands the existing box to the RNG,
   where a flat [float array] would box a fresh copy every time. *)
type chunk = { mean : int; cv : float }

type t = {
  ops : op list;
  code : code array;
  arg : int array;
  arg2 : int array;
  chunks : chunk array;
  loops : int;  (** loop counters a cursor needs *)
}

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

(* Code entries [ops] compiles to. *)
let rec code_size ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Repeat (n, body) ->
        let body = if n = 0 then 0 else code_size body in
        if body = 0 then acc else acc + body + 2
      | Compute _ | Compute_rand _ | Lock _ | Unlock _ | Sem_wait _ | Sem_post _
      | Barrier _ | Mark | Sleep _ ->
        acc + 1)
    0 ops

let compile ops =
  let size = code_size ops + 1 in
  let code = Array.make size C_end in
  let arg = Array.make size 0 in
  let arg2 = Array.make size 0 in
  let chunks = ref [] and nchunks = ref 0 in
  let pc = ref 0 and loops = ref 0 in
  let emit c a =
    code.(!pc) <- c;
    arg.(!pc) <- a;
    incr pc
  in
  let rec go ops =
    List.iter
      (fun op ->
        match op with
        | Compute n -> emit C_compute n
        | Compute_rand { mean; cv } ->
          chunks := { mean; cv } :: !chunks;
          emit C_compute_rand !nchunks;
          incr nchunks
        | Lock id -> emit C_lock id
        | Unlock id -> emit C_unlock id
        | Sem_wait id -> emit C_sem_wait id
        | Sem_post id -> emit C_sem_post id
        | Barrier id -> emit C_barrier id
        | Mark -> emit C_mark 0
        | Sleep n -> emit C_sleep n
        | Repeat (n, body) ->
          if n > 0 && code_size body > 0 then begin
            let k = !loops in
            incr loops;
            arg2.(!pc) <- n;
            emit C_loop k;
            let start = !pc in
            go body;
            arg2.(!pc) <- start;
            emit C_back k
          end)
      ops
  in
  go ops;
  {
    ops;
    code;
    arg;
    arg2;
    chunks = Array.of_list (List.rev !chunks);
    loops = !loops;
  }

let make ops =
  validate ops;
  compile ops

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

(* A cursor is a position in the shared code plus one iteration
   counter per loop: the iterations left after the current one. *)
type cursor = {
  program : t;
  mutable pc : int;
  counters : int array;
  mutable operand : int;  (** of the instruction [next] last returned *)
}

let cursor program =
  { program; pc = 0; counters = Array.make program.loops 0; operand = 0 }

let reset c = c.pc <- 0

let operand c = c.operand

(* The opcode is a constant constructor and the operand goes to a
   cursor field, so handing out an instruction allocates nothing. *)
let[@inline] emit c pc instr operand =
  c.pc <- pc + 1;
  c.operand <- operand;
  instr

let rec next c ~rng =
  let p = c.program in
  let pc = c.pc in
  let arg = p.arg.(pc) in
  match p.code.(pc) with
  | C_compute -> emit c pc I_compute arg
  | C_compute_rand ->
    let chunk = p.chunks.(arg) in
    let n =
      Sim_engine.Rng.lognormal_cv rng
        ~mean:(float_of_int chunk.mean)
        ~cv:chunk.cv
    in
    emit c pc I_compute (Int.max 1 (int_of_float n))
  | C_lock -> emit c pc I_lock arg
  | C_unlock -> emit c pc I_unlock arg
  | C_sem_wait -> emit c pc I_sem_wait arg
  | C_sem_post -> emit c pc I_sem_post arg
  | C_barrier -> emit c pc I_barrier arg
  | C_mark -> emit c pc I_mark 0
  | C_sleep -> emit c pc I_sleep arg
  | C_loop ->
    c.counters.(arg) <- p.arg2.(pc) - 1;
    c.pc <- pc + 1;
    next c ~rng
  | C_back ->
    let left = c.counters.(arg) in
    if left > 0 then begin
      c.counters.(arg) <- left - 1;
      c.pc <- p.arg2.(pc)
    end
    else c.pc <- pc + 1;
    next c ~rng
  | C_end ->
    c.operand <- 0;
    I_end

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
