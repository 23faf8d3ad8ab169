(** Wall-clock and virtual clocks.

    Online aggregation is a time-budgeted computation: the driver loops
    "perform a walk, update the estimate" until the clock expires.  Real
    experiments use the monotonic wall clock; the limited-memory simulation
    (Fig. 13) instead advances a {e virtual} clock by simulated I/O costs so
    the same driver code runs against modelled hardware. *)

type t
(** A clock.  Wall clocks are read-only views of the process monotonic time;
    virtual clocks are advanced explicitly. *)

val wall : unit -> t
(** Clock backed by the OS monotonic counter, starting at 0 now. *)

val virtual_ : unit -> t
(** Clock starting at 0 that advances only through {!advance}. *)

val hybrid : unit -> t
(** Clock that advances with wall time AND through {!advance}: elapsed =
    real CPU time + simulated I/O charges.  This is what the limited-memory
    experiments use, so that algorithmic (CPU) cost is not lost when I/O is
    simulated. *)

val elapsed : t -> float
(** Seconds since the clock was created. *)

val advance : t -> float -> unit
(** Add seconds to a virtual clock.  Raises [Invalid_argument] on a wall
    clock or on a negative amount. *)

val is_virtual : t -> bool

val time_it : (unit -> 'a) -> 'a * float
(** [time_it f] runs [f] and also returns its wall-clock duration in
    seconds. *)
