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
    Raises [Invalid_argument] when the query admits no walk plan. *)

val run :
  ?seed:int ->
  ?confidence:float ->
  ?domains:int ->
  ?max_time:float ->
  ?walks_per_domain:int ->
  ?plan_choice:Online.plan_choice ->
  ?batch:int ->
  ?sink:Wj_obs.Sink.t ->
  Query.t ->
  Registry.t ->
  outcome
  [@@deprecated "use Parallel.run_session with a Run_config (or Session.run)"]
(** Thin shim over {!run_session}; defaults seed 77, confidence 0.95,
    [max_time] 1 s, optimizer plan choice, batch 1, no-op sink. *)

module Session : sig
  type t
  (** A {b one-shot} session handle: a parallel run blocks on its spawned
      domains, so the first {!advance} executes the entire fan-out
      regardless of [max_steps] and later calls return the resolved stop
      reason.  This keeps the handle interface uniform with
      {!Online.Session} so a scheduler can host parallel jobs; such jobs
      simply occupy their whole lifetime within one quantum. *)

  val advance : t -> max_steps:int -> Engine.Driver.stop_reason option
  (** Always returns [Some _].  Raises [Invalid_argument] when
      [max_steps < 1]. *)

  val interrupt : t -> Engine.Driver.stop_reason -> unit
  (** Before the first {!advance}: the run is skipped entirely and
      {!outcome} will raise.  After it: no-op (the run has finished). *)

  val stopped : t -> Engine.Driver.stop_reason option

  val outcome : t -> outcome
  (** Raises [Invalid_argument] when the run was interrupted before its
      first {!advance} (there is no partial parallel outcome). *)
end

val start_session :
  ?domains:int ->
  ?walks_per_domain:int ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  Session.t
(** Build the one-shot handle; nothing runs (not even plan selection)
    until the first [advance]. *)
