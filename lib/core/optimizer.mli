(** The statistics-free walk-plan optimizer (§4.2).

    For a fixed time budget t the variance of the final estimate is
    proportional to Var[X₁]·E[T] (law of total variance), where X₁ is one
    walk's Horvitz–Thompson observation and T one walk's cost.  Both are
    estimated by trial walks: plans take turns performing one walk each,
    and sequential halving (Karnin, Koren & Somekh, ICML 2013) drops the
    worse half of the survivors at fixed rounds, until a survivor
    accumulates τ successful walks or the finalists reach [max_rounds].
    Among the survivors with at least min(τ/2, their most successes)
    successes, the one minimising Var[X₁]·E[T] wins.  A query with a
    single candidate plan runs no trial walk.

    With n candidates and k = ⌈log₂ n⌉, the cuts come at cumulative round
    [max_rounds lsr (k - j)] for j = 1 … k-1, so the last two plans share
    the second half of the budget.  Each cut keeps the better ⌈|S|/2⌉ by
    the same objective; survivors below the support threshold rank after
    the supported ones, by successes, then by E[T], then in enumeration
    order.  Survivors keep enumeration order on the one trial stream, so a
    query that reaches τ before the first cut, or has at most two plans,
    runs exactly the plain round-robin.

    Trial walks pick the plan and nothing else.  Each is an unbiased
    observation, but of its own plan: pooled, the candidates' per-walk
    variances average in, and the pool's σ̃² dwarfs the chosen plan's
    (TPC-H Q7 at SF 0.1: 13–17×; a 200k-row cyclic triangle: 150–790×).
    A session seeded with that pool spends most of its walks diluting it,
    so every driver starts a fresh estimator on the chosen plan; the
    trials' cost ([total_trial_walks]) is pure overhead. *)

type config = {
  tau : int;  (** success threshold; paper default 100 *)
  max_rounds : int;
      (** backstop: stop after this many rounds even if no plan reached τ
          (all-plans-terrible queries); the walks each finalist gets, and
          the scale of the halving cuts *)
}

val default_config : config

type plan_report = {
  plan : Walk_plan.t;
  trial_walks : int;
      (** a plan dropped by a cut walked exactly that cut's rounds; its
          statistics are those it had then *)
  trial_successes : int;
  var_x : float;  (** estimated Var[X₁] *)
  cost_t : float;  (** estimated E[T] in abstract steps *)
  objective : float;  (** Var[X₁]·E[T]; [infinity] when unsupported *)
  chosen : bool;
}

type result = {
  best : Walker.prepared;
  best_plan : Walk_plan.t;
  total_trial_walks : int;
  reports : plan_report list;
}

val choose :
  ?config:config ->
  ?eager_checks:bool ->
  ?sink:Wj_obs.Sink.t ->
  ?convergence:Wj_obs.Convergence.t ->
  ?plans:Walk_plan.t list ->
  Query.t ->
  Registry.t ->
  Wj_util.Prng.t ->
  result
(** Runs the trial protocol over [plans] (default: all enumerated plans,
    each followed by its {!Walk_plan.intersect_variants} — so on cyclic
    queries the trials also decide the index-granularity axis, plain
    sampling + rejection versus trie pre-intersection per non-tree
    edge).
    [sink] is threaded to every trial {!Walker.prepare}, so trial walks
    count in the sink's walker metrics like any other walk; when the sink
    carries a trace the whole trial protocol is one ["optimizer.trials"]
    span.  [convergence] registers every candidate plan (label =
    {!Walk_plan.describe}) and records each trial walk's outcome and
    Horvitz–Thompson observation against it, so the flight recorder's
    per-plan variance attribution includes the trial phase — the same
    Var[X₁] evidence this optimizer decides on, preserved as an
    explainable input.  Raises [Invalid_argument] when no walk plan
    exists (a registry missing the indexes every order needs). *)
