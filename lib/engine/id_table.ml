(* Int-keyed hash table for lookups on the event path. The hash and
   the key comparison are inline integer operations, where the generic
   [Hashtbl] calls the C [caml_hash] and the polymorphic compare on
   every [find]. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)
