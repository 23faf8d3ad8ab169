(** Multicore wander join (§7: "an embarrassingly parallel algorithm").

    Walks are independent and the data structures are read-only during
    execution, so parallelism is a fan-out: each domain runs its own PRNG
    stream and estimator against the shared tables and indexes, and the
    per-domain estimators merge into one (merging is exact — the moments
    are additive).

    The plan is chosen once (optionally by the optimizer) before spawning;
    as in the sequential driver, the optimizer's trial walks only pick the
    plan, so the merged estimator holds the domains' walks and nothing
    else. *)

type outcome = {
  final : Online.report;
  estimator : Wj_stats.Estimator.t;
  plan_description : string;
  domains_used : int;
  per_domain_walks : int array;
  stopped_because : Engine.Driver.stop_reason;
      (** the calling domain's stop reason (spawned domains resolve the
          same conditions against the same budgets) *)
}

val run_session :
  ?domains:int ->
  ?walks_per_domain:int ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  outcome
(** The run-session entry point.  [domains] defaults to
    [Domain.recommended_domain_count ()].  Each domain runs its own
    {!Engine} ([cfg.batch] in-flight walks) through the shared
    {!Engine.Driver} until [cfg.max_time] or [walks_per_domain] expires.
    [cfg.report_every] and [cfg.target] are ignored (per-domain estimators
    only merge at the end).

    [cfg.sink]: event callbacks fire from the calling domain only (plan
    choice, domain 0's walks); metric counters are shared by all domains —
    plain unsynchronised stores into flat arrays, so counts are
    approximate under contention (never torn: each cell is one word).
    Blocking: it returns once every domain has stopped, and there is no
    resumable session handle — the service scheduler does not host
    parallel runs (its own multi-domain drain shards whole sessions
    instead).  Raises [Invalid_argument] when [domains < 1] or the query
    admits no walk plan. *)
