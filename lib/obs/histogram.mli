(** Fixed-bucket histogram: a contiguous run of cells in a flat int array.

    Buckets are indexed by small non-negative integers (a walk's failure
    depth, a plan phase number); out-of-range observations clamp to the
    nearest end bucket so totals still reconcile.  Same lock-free-style
    guarantees as {!Counter}: no allocation or locking per observation,
    word-atomic stores, approximate under multicore contention. *)

type t

val of_cells : int array -> int -> buckets:int -> t
(** A histogram backed by cells [off .. off+buckets-1] of a caller-owned
    arena. *)

val buckets : t -> int
(** Number of buckets. *)

val observe : t -> int -> unit
(** Increment bucket [i], clamped into [0, buckets-1]. *)

val add : t -> int -> int -> unit
(** [add h i n]: add [n] to bucket [i] (clamped). *)

val count : t -> int -> int
(** Value of bucket [i] (clamped). *)

val total : t -> int
(** Sum over all buckets. *)

val to_array : t -> int array
(** Fresh copy of the bucket values. *)
