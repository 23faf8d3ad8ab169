(** Estimator-convergence diagnostics (§4.1 made observable).

    Wander join's contract is a confidence interval whose half-width
    shrinks like [c/√k] in the number of walks [k].  This module tracks
    one session's CI trajectory and fits that decay, and attributes the
    session's walks — and their observation variance — to the walk plans
    that performed them, so "why is this estimate converging slowly?"
    has a quantitative answer: either the decay exponent is far from
    [-1/2] (pathological variance), or one plan dominates the variance
    share, or a plan is stalled (all attempts, no successes).

    The CI trajectory lives in a {!Timeseries} (bounded memory); per-plan
    statistics are running {!Wj_stats.Moments} (O(1) per walk). *)

type t

type fit = {
  c : float;  (** fitted constant of [half_width ≈ c·walks^exponent] *)
  exponent : float;  (** fitted decay exponent; ideal is [-0.5] *)
  points : int;  (** CI samples that participated in the fit *)
}

type attribution = {
  plan : string;
  attempts : int;  (** walks this plan performed (successes + failures) *)
  successes : int;
  variance : float;  (** sample variance of the plan's observations *)
  share : float;
      (** this plan's fraction of the attempts-weighted variance mass;
          shares sum to 1 when any variance was observed *)
}

val create : unit -> t
(** The CI time series holds at most 512 points (the default of
    {!Timeseries.create}). *)

val register_plan : t -> string -> unit
(** Declare a plan label (idempotent).  Registration fixes the
    {!attribution} order; observing an unregistered label registers it. *)

val observe : t -> plan:string -> success:bool -> float -> unit
(** Record one walk by [plan]: a success contributes its
    Horvitz–Thompson observation value, a failure a zero observation
    (failures are part of the probability space and dilute the plan's
    variance exactly as they do the estimator's). *)

val credit : t -> plan:string -> attempts:int -> successes:int -> unit
(** Bulk-attribute walks to [plan] without streaming their values — the
    online driver credits its main-loop walks to the chosen plan this
    way, so attribution counts stay exact while the hot path stays free
    of per-walk recorder work.  Raises [Invalid_argument] on negative
    counts or [successes > attempts]. *)

val note_ci : t -> walks:int -> half_width:float -> unit
(** Append one CI sample at [walks] to the trajectory. *)

val ci_series : t -> (float * float) array
(** The retained [(walks, half_width)] trajectory. *)

val series : t -> Timeseries.t

val fit : t -> fit option
(** Log-log least squares over the strictly positive, finite CI samples;
    [None] with fewer than two usable points or a degenerate axis. *)

val fit_json : fit option -> Wj_util.Json.t
(** [{"c":..,"exponent":..,"points":..}], or [null] without a fit: the
    one encoding the flight record and wjd's slow-query log share. *)

val convergence_ratio : t -> float option
(** [fitted exponent / (-0.5)]: 1.0 is textbook [1/√k] convergence,
    below ~0.5 means the CI is shrinking much slower than walk count
    should buy. *)

val attribution : t -> attribution list
(** Per-plan breakdown in registration order.  The sum of [attempts]
    equals every walk ever observed or credited — the acceptance
    invariant tying the recorder back to the driver's walk count. *)

val total_attempts : t -> int

val stalled : t -> string list
(** Plans with at least 64 attempts whose success rate is at or below
    0.01 — walk plans burning probes without producing observations. *)
