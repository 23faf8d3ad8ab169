(** Hybrid wander/ripple execution over a directed-spanning-tree
    decomposition (§4.1).

    When the query graph has no directed spanning tree, {!Decompose} splits
    it into components.  Random walks run round-robin per component; every
    successful component path is combined, ripple-join style, with all
    stored paths of the other components, checking the cross-component join
    conditions and weighting each combination by the product of the
    component Horvitz–Thompson weights.

    Because the combination estimator is not a mean of independent
    observations, its confidence interval comes from independent
    replicates: R disjoint estimator streams run side by side and the CI is
    the normal interval over the R replicate estimates. *)

type config = {
  replicates : int;  (** default 8 *)
  max_paths_per_component : int;
      (** freeze a component's walking once this many successful paths are
          stored (keeps the cross product bounded); default 512 *)
  trial_walks_per_plan : int;  (** per-component plan selection; default 50 *)
}

type outcome = {
  estimate : float;
  half_width : float;
  components : Decompose.component list;
  component_plans : string list;
  rounds : int;
  walks : int;
  elapsed : float;
  replicate_estimates : float array;
  final : Wj_obs.Progress.t;
      (** the unified progress view of the run ([walks] = component walks,
          [successes] = successful component paths) *)
}

val run_session :
  ?config:config ->
  ?max_rounds:int ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  outcome
(** The run-session entry point.  [cfg.max_walks], when set, overrides
    [max_rounds] (one round = every live replicate x component walks
    once); [cfg.should_stop] is polled every round alongside the all-frozen
    check; [cfg.plan_choice], [cfg.target] and [cfg.report_every] are
    ignored (component plans are chosen by success-rate trials).
    [cfg.sink] observes every component walk through {!Walker.prepare},
    each chosen component plan ([Plan_chosen]) and the stop reason.
    Blocking: it builds one {!Engine.Driver} loop over rounds and drains
    it; the service scheduler does not host hybrid runs.  Raises
    [Invalid_argument] if some component admits no walk plan (a table
    with no usable index at all). *)
