(** Monotonic event counter: one cell of a flat int array.

    The hot-path operations compile to a single unboxed load/store pair —
    no allocation, no locks.  Word-sized stores are atomic on every
    platform OCaml targets, so concurrent writers never tear a value;
    simultaneous increments may however lose updates ("lock-free-style"):
    counts read under multicore contention are approximate, which is the
    usual trade observability systems make to stay off the hot path. *)

type t

val of_cells : int array -> int -> t
(** A counter backed by cell [off] of a caller-owned arena ({!Metrics}
    carves all its counters out of shared chunks). *)

val incr : t -> unit
(** Add 1. *)

val add : t -> int -> unit
(** Add [n] (negative deltas are allowed but defeat monotonicity). *)

val value : t -> int
(** Current count. *)
