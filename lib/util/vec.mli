(** Growable arrays.

    OCaml 5.1's standard library has no [Dynarray]; tables and index builders
    need amortised O(1) append with O(1) random access, so we provide one. *)

type 'a t

val create : unit -> 'a t
(** An empty vector.  The first push allocates 16 slots; later growth
    doubles. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
(** O(1); raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
