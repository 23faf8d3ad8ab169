(** Growable vector of unboxed [int]s.

    Unlike the polymorphic {!Vec} (which cannot pre-size its storage without
    a witness element), the element type is known, so [?capacity] really
    allocates: bulk loaders that know their row count pay zero doubling
    copies. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val push : t -> int -> unit

val truncate : t -> int -> unit
(** Shrink to the first [n] elements (storage is retained). *)

val data : t -> int array
(** The live backing array ([length t] valid slots, the rest garbage).
    Valid until the next growing {!push}; intended for read-only column
    cursors over tables that are no longer mutated. *)
