(** Growable bitset (null bitmaps).  Bits default to false; [mem] never
    grows storage, so probing a clean set is one bounds test. *)

type t

val create : unit -> t
(** An empty set of one word; it grows on {!set}. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val any : t -> bool
(** False only if no bit was ever set — lets hot paths skip per-row null
    tests on columns that contain no nulls.  May stay true after [clear]. *)
