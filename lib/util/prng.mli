(** Deterministic pseudo-random number generation.

    The whole repository routes randomness through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    xoshiro256** seeded via splitmix64, which is both fast and of high
    statistical quality — important here because wander join's unbiasedness
    argument assumes the per-step choices are (close to) independent
    uniforms.

    Drawing is allocation-free: the state is a 32-byte buffer read and
    written through unboxed [int64] primitives, so {!int}, {!float} and
    {!bool} allocate nothing on the OCaml heap.  A walk step draws through
    {!int}, so the walker's hot path stays off the minor heap. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val copy : t -> t
(** Independent copy with identical state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams from
    [split] are statistically independent of the parent's subsequent
    output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0].
    Uses rejection sampling, so there is no modulo bias; the rejection
    loop is a plain loop, not a closure. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
