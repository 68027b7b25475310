(* Persistent worker-domain team with a generation barrier.

   The execution engine under Fabric.run: [tasks] drainable units
   (member engines), a [work i ~limit] closure that drains unit [i] up to [limit], and a
   team of [workers - 1] spawned domains plus the calling coordinator.

   Each window the coordinator publishes (limit, gen+1) under the
   mutex; workers grab unit indices from an atomic counter, drain
   them, and check in. All simulation state crosses domains inside
   mutex-protected generation transitions, so every window's writes
   happen-before the next window's reads. With [workers = 1] no domain
   is spawned and windows run sequentially on the caller. *)

type t = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable gen : int;  (* window generation; bumped to start a window *)
  mutable limit : int;
  mutable stop : bool;
  mutable checked_in : int;  (* workers finished with current gen *)
  mutable failure : exn option;  (* first exception raised in a window *)
  next_task : int Atomic.t;
  tasks : int;
  work : int -> limit:int -> unit;
  workers : int;
  mutable domains : unit Domain.t array;
}

let workers t = t.workers

(* Drain tasks off the grab counter until it runs out; record (don't
   propagate) the first exception so the barrier still completes. *)
let grab t =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add t.next_task 1 in
    if i >= t.tasks then continue_ := false
    else
      try t.work i ~limit:t.limit
      with e ->
        Mutex.lock t.mu;
        if t.failure = None then t.failure <- Some e;
        Mutex.unlock t.mu
  done

let worker_loop t () =
  let gen_seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.mu;
    while (not t.stop) && t.gen = !gen_seen do
      Condition.wait t.cv t.mu
    done;
    if t.stop then begin
      Mutex.unlock t.mu;
      continue_ := false
    end
    else begin
      gen_seen := t.gen;
      Mutex.unlock t.mu;
      grab t;
      Mutex.lock t.mu;
      t.checked_in <- t.checked_in + 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.mu
    end
  done

let create ~workers ~tasks ~work =
  let workers = max 1 (min workers tasks) in
  let t =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      gen = 0;
      limit = 0;
      stop = false;
      checked_in = 0;
      failure = None;
      next_task = Atomic.make 0;
      tasks;
      work;
      workers;
      domains = [||];
    }
  in
  if workers > 1 then
    t.domains <- Array.init (workers - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

(* Run one window (coordinator participates). Re-raises a worker
   exception only after the barrier, so the team is never left
   mid-window. *)
let window t ~limit =
  if t.workers = 1 then begin
    t.limit <- limit;
    for i = 0 to t.tasks - 1 do
      t.work i ~limit
    done
  end
  else begin
    Mutex.lock t.mu;
    t.limit <- limit;
    t.checked_in <- 0;
    Atomic.set t.next_task 0;
    t.gen <- t.gen + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    grab t;
    Mutex.lock t.mu;
    t.checked_in <- t.checked_in + 1;
    while t.checked_in < t.workers do
      Condition.wait t.cv t.mu
    done;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mu;
    match failure with None -> () | Some e -> raise e
  end

let shutdown t =
  if t.workers > 1 then begin
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.domains
  end
