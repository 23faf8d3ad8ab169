(** Growable arrays.

    OCaml 5.1's standard library has no [Dynarray]; tables and index builders
    need amortised O(1) append with O(1) random access, so we provide one. *)

type 'a t

val create : unit -> 'a t
(** An empty vector.  The first push allocates 16 slots; later growth
    doubles. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
(** O(1); raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val to_list : 'a t -> 'a list
val sort : ('a -> 'a -> int) -> 'a t -> unit
(** Sorts the populated prefix in place. *)
