(* Bounded ring buffer with drop accounting. The backing array is
   allocated lazily on the first push, so a created-but-never-used
   ring (tracing compiled in but disabled) costs two words. *)

type 'a t = {
  cap : int;
  mutable buf : 'a array;  (** [[||]] until the first push *)
  mutable start : int;  (** index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~cap =
  if cap < 0 then invalid_arg "Ring.create: negative capacity";
  { cap; buf = [||]; start = 0; len = 0; dropped = 0 }

let capacity t = t.cap

let length t = t.len

let dropped t = t.dropped

let push t x =
  if t.cap = 0 then t.dropped <- t.dropped + 1
  else begin
    if Array.length t.buf = 0 then t.buf <- Array.make t.cap x;
    if t.len < t.cap then begin
      t.buf.((t.start + t.len) mod t.cap) <- x;
      t.len <- t.len + 1
    end
    else begin
      (* Full: overwrite the oldest element. *)
      t.buf.(t.start) <- x;
      t.start <- (t.start + 1) mod t.cap;
      t.dropped <- t.dropped + 1
    end
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod t.cap)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (t.buf.((t.start + i) mod t.cap) :: acc)
  in
  go (t.len - 1) []

(* Clearing keeps the drop count: it tallies lifetime losses. *)
let clear t =
  t.start <- 0;
  t.len <- 0
