open Sim_engine

type benchmark = Gcc | Bzip2

let name = function Gcc -> "176.gcc" | Bzip2 -> "256.bzip2"

type params = {
  bench_name : string;
  chunks : int;
  chunk_compute : int;
  chunk_cv : float;
}

let params bench ~freq ~scale =
  if scale <= 0. then invalid_arg "Speccpu.params: scale must be positive";
  let base_chunks = match bench with Gcc -> 120 | Bzip2 -> 160 in
  let chunks =
    max 2 (int_of_float (Float.round (float_of_int base_chunks *. scale)))
  in
  {
    bench_name = name bench;
    chunks;
    chunk_compute = Units.cycles_of_ms freq 15;
    chunk_cv = 0.10;
  }

let workload ?(copies = 4) p =
  if copies <= 0 then invalid_arg "Speccpu.workload: copies must be positive";
  let program =
    Sim_guest.Program.make
      [
        Sim_guest.Program.Repeat
          ( p.chunks,
            [
              Sim_guest.Program.Compute_rand
                { mean = p.chunk_compute; cv = p.chunk_cv };
              Sim_guest.Program.Mark;
            ] );
      ]
  in
  {
    Workload.name = p.bench_name;
    kind = Workload.Throughput;
    threads =
      List.init copies (fun i ->
          { Workload.affinity = i; program; restart = true });
    barriers = [];
    semaphores = [];
  }
