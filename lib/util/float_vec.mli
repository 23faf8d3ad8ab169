(** Growable vector of unboxed [float]s (flat [float array] storage, no
    per-element boxing).  Same contract as {!Int_vec}. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> float
val push : t -> float -> unit

val truncate : t -> int -> unit
(** Shrink to the first [n] elements (storage is retained). *)

val data : t -> float array
(** The live backing array; see {!Int_vec.data}. *)
