type t = {
  barrier_id : int;
  parties : int;
  lock : Spinlock.t;
  mutable count : int;
  mutable generation : int;
  mutable first_arrival : int;
  mutable crossings : int;
  mutable longest : int;
}

let create ~id ~parties =
  if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
  {
    barrier_id = id;
    parties;
    (* The internal lock shares the barrier's id space; the kernel
       allocates distinct ids for it. *)
    lock = Spinlock.create ~id:(-(id + 1));
    count = 0;
    generation = 0;
    first_arrival = 0;
    crossings = 0;
    longest = 0;
  }

let id t = t.barrier_id

let parties t = t.parties

let lock t = t.lock

let generation t = t.generation

let arrive t ~now =
  if t.count = 0 then t.first_arrival <- now;
  t.count <- t.count + 1;
  if t.count >= t.parties then begin
    t.count <- 0;
    t.generation <- t.generation + 1;
    t.crossings <- t.crossings + 1;
    t.longest <- Int.max t.longest (now - t.first_arrival);
    `Last
  end
  else `Wait t.generation

let passed t ~gen = t.generation > gen

let crossings t = t.crossings

let longest_episode t = t.longest
