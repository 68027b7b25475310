(** Hash table keyed by integer ids (lock, barrier, domain ids), for
    lookups on the event path: hashing and key comparison are inline
    integer operations, with no call to the C [caml_hash] or to the
    polymorphic compare. *)

include Hashtbl.S with type key = int
