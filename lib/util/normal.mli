(** The standard normal distribution.

    Confidence intervals in online aggregation are large-sample normal
    intervals: the half-width is [z_alpha * sigma / sqrt n] where [z_alpha]
    is the (alpha+1)/2 quantile of N(0,1) (Appendix A, Eq. 5). *)

val cdf : float -> float
(** Distribution function of N(0,1), accurate to ~1e-7 (Hart/Cody-style
    rational approximation of erfc). *)

val quantile : float -> float
(** [quantile p] is the inverse CDF for [p] in (0,1) (Acklam's algorithm
    refined with one Halley step; relative error below 1e-9).
    Raises [Invalid_argument] outside (0,1). *)

val z_of_confidence : float -> float
(** [z_of_confidence alpha] is the (alpha+1)/2 quantile, e.g.
    [z_of_confidence 0.95 = 1.9599...]. Requires [0 < alpha < 1]. *)
