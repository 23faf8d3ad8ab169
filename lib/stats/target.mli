(** Stopping criteria for online aggregation.

    The user either fixes the confidence half-width (±1% of the estimate, or
    an absolute bound) and watches it shrink, or fixes a time budget
    (WITHINTIME) and takes the best estimate available (§2, problem
    formulation). *)

type width =
  | Relative of float  (** half-width <= fraction * |estimate| *)
  | Absolute of float  (** half-width <= bound *)

type t = { confidence : float; width : width }

val relative : ?confidence:float -> float -> t
(** [relative 0.01] targets ±1% at 95% confidence (the paper's default). *)

val reached : t -> estimate:float -> half_width:float -> bool
(** True when the interval is tight enough.  A non-finite estimate or
    half-width never satisfies the target. *)
