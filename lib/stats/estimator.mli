(** Online-aggregation estimators (Appendix A of the paper).

    Each random walk i contributes a pair (u(i), v(i)): u(i) = 1/p(γ_i) for
    a successful walk and 0 for a failed one; v(i) is the aggregated
    expression evaluated on the sampled path.  The estimators below are
    unbiased (SUM, COUNT) or consistent ratio estimators (AVG, VARIANCE,
    STDEV), each with a per-walk variance estimate σ̃²_n such that the
    confidence half-width is z_α σ̃_n / √n (Eq. 5).

    VARIANCE and STDEV are not spelled out in the paper's appendix (it
    defers to Haas 1997); we implement them as ratio estimators with
    delta-method variances over the observation vector (u, uv, uv²). *)

type agg = Sum | Count | Avg | Variance | Stdev

val agg_to_string : agg -> string

type t

val create : agg -> t
val agg : t -> agg

val add : t -> u:float -> v:float -> unit
(** Record a successful walk with Horvitz–Thompson weight [u] (= 1/p) and
    expression value [v].  Raises [Invalid_argument] when [u <= 0]. *)

val add_failure : t -> unit
(** Record a failed walk: it stays in the probability space and counts as a
    0-valued observation (§3.1). *)

val add_failures : t -> int -> unit
(** Record [k] failed walks in O(1).  Group-by maintenance uses this to pad
    every group's estimator up to the global walk count. *)

val n : t -> int
(** Total walks, successful plus failed. *)

val successes : t -> int

val estimate : t -> float
(** Current point estimate; [nan] while undefined (e.g. AVG with no
    successful walk yet). *)

val variance_of_walk : t -> float
(** σ̃²_n, the estimated variance of a single-walk observation; never
    negative. *)

val half_width : t -> confidence:float -> float
(** z_α σ̃_n / √n; [infinity] when fewer than 2 walks or no successful
    walk: all-zero observations have zero sample variance, and 0 ± 0 is
    not an interval. *)

