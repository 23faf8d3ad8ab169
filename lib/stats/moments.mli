(** Running power sums with compensated accumulation.

    Appendix A's estimators are all built from three sample functionals over
    the per-walk observations f(i):

      Tn(f)        the sample mean,
      Tn,2(f)      the sample variance (n-1 normalised),
      Tn,1,1(f,h)  the sample covariance.

    Horvitz–Thompson weights can be very large (1/p is of the order of the
    join size), so sums of squares span many magnitudes; Kahan summation
    keeps them accurate. *)

type kahan

val kahan : unit -> kahan
val kadd : kahan -> float -> unit
val ksum : kahan -> float

type t
(** Joint moments of a stream of observation vectors of fixed dimension. *)

val create : dim:int -> t
(** Tracks sums, sums of squares and all pairwise cross-sums of a
    [dim]-dimensional stream. *)

val add : t -> float array -> unit
(** Raises [Invalid_argument] on a dimension mismatch. *)

val add_zeros : t -> int -> unit
(** Record [k] all-zero observations in O(1): only the count moves.
    Raises [Invalid_argument] when [k < 0]. *)

val n : t -> int
val mean : t -> int -> float
(** [Tn(f_i)]; 0 when no observations were added. *)

val sample_variance : t -> int -> float
(** [Tn,2(f_i)]; 0 when fewer than two observations. *)

val sample_covariance : t -> int -> int -> float
(** [Tn,1,1(f_i, f_j)]; 0 when fewer than two observations. *)

val covariance_matrix : t -> float array array
(** dim x dim sample covariance matrix. *)
