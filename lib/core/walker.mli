(** Execution of individual random walks (§3).

    [prepare] compiles a (query, plan) pair into a closure-friendly form:
    predicate lists per position, the start-table sampler (uniform, or
    Olken over an ordered index when a sargable predicate allows it, §3.5),
    and the schedule on which non-tree edges and predicates are checked.

    [walk] then performs one walk: it samples a start tuple, walks/jumps
    through the plan's steps picking a uniform index neighbour each time,
    accumulates the inverse sampling probability (Eq. 3), and fails fast on
    an empty neighbour set, a violated predicate, or a violated non-tree
    edge.  Failed walks are part of the probability space and must be fed
    to the estimator as zeros (§3.1). *)

type outcome =
  | Success of { path : int array; inv_p : float }
  | Failure of { depth : int }
      (** [depth]: how many tables were bound before the walk died. *)

type prepared

val prepare :
  ?eager_checks:bool ->
  ?sink:Wj_obs.Sink.t ->
  Query.t ->
  Registry.t ->
  Walk_plan.t ->
  prepared
(** [eager_checks] (default true) verifies predicates and non-tree edges at
    the earliest step where their tables are bound; when false, everything
    is checked only once the full path is assembled (the paper's plain
    description — kept for the fail-fast ablation).

    [sink] (default {!Wj_obs.Sink.noop}) receives the walker's typed
    events ([Walk_started] / [Walk_succeeded] / [Walk_failed] /
    [Row_access] / [Index_probe]) and, when it carries a metrics registry, per-phase
    step counts, rejection causes and a failure-depth histogram under the
    ["walker.*"] families.  Handles are resolved here, once: a no-op sink
    costs one branch per site and changes no PRNG draw, so fixed-seed
    results are bit-for-bit those of an unobserved run.  The I/O
    simulator ([Wj_iosim.Sim.sink]) charges its page accesses from the
    [Row_access] and [Index_probe] events. *)

val start_cardinality : prepared -> int
(** The |R_{λ(1)}| (or Olken-reduced qualifying count) used in the
    Horvitz–Thompson weight. *)

val uses_olken_start : prepared -> bool

val start_predicate : prepared -> Query.predicate option
(** The sargable predicate served by the Olken start sampler, if any.
    Among candidates with equal qualifying range counts the choice is
    deterministic: the predicate listed first in the query's predicate
    list wins (ties never depend on fold order). *)

val query : prepared -> Query.t
val plan : prepared -> Walk_plan.t

val walk : prepared -> Wj_util.Prng.t -> outcome
(** One random walk.  Also drives the sink, if any, and records the
    walk's outcome (see {!record_outcome}) — callers composing walks out of
    the phases below must do both themselves. *)

(** {2 Step-granular phases}

    [walk] is the sequential composition of the phases below; the batched
    {!Engine} interleaves the same phases across many in-flight walks.
    Both consume identical PRNG draws per walk, so a single-slot engine
    reproduces [walk] bit for bit. *)

type phase =
  | Advanced
      (** One more table bound and vetted; multiply the walk's running
          [inv_p] by {!phase_factor}. *)
  | Dead_unbound
      (** The walk died without vetting the attempted table (empty
          neighbour set, or a predicate rejected the sampled row): the
          failure depth does not count this table. *)
  | Dead_bound
      (** The row was bound and passed its predicates but a non-tree join
          check failed: the failure depth counts this table. *)

val advance_start : prepared -> Wj_util.Prng.t -> int array -> phase
(** Sample, bind (into the caller's path buffer) and vet the start tuple.
    The abstract cost of the attempt is left in {!phase_cost}. *)

val advance_step : prepared -> Wj_util.Prng.t -> int array -> int -> phase
(** Advance one plan step: locate the bound parent row's neighbour set in
    the step's index once ({!Wj_index.Index.locate_eq}/[locate_range]),
    draw one of its d rows uniformly, select it out of the locate, bind
    and vet it.  The step costs the index's [count_cost + resolve_cost]
    plus one tuple fetch.

    When the step carries a pre-intersection spec ({!Walk_plan.step.isect})
    the neighbour set is first narrowed through the step's trie by every
    folded non-tree edge; the sample is uniform over the intersected set
    and its count is the HT factor.  An empty intersection is a non-tree
    reject caught before sampling: it consumes no PRNG draw, returns
    [Dead_unbound] (no row was bound) and is attributed to the folded
    edge in the per-edge reject counters
    (["walker.rejects.nontree.<edge>"]) and [Nontree_reject] events, as
    are post-bind non-tree check failures. *)

val phase_cost : prepared -> int
(** Abstract cost (index-entry accesses + tuple fetches) of the most
    recent [advance_start]/[advance_step] call. *)

val phase_factor : prepared -> float
(** The Horvitz–Thompson factor of the most recent phase that returned
    [Advanced]: the start cardinality after [advance_start], the neighbour
    count d after [advance_step].  Kept in [prepared], like
    {!phase_cost}, so that neither phase allocates: a walk step boxes no
    float, builds no probe result (it locates into a buffer the step
    owns) and runs its checks in loops. *)

val note_walk_started : prepared -> unit
(** Emit [Walk_started] to the sink, if it wants events.  {!walk} calls
    this itself; phase-level callers (the batched engine) call it when a
    slot begins a new walk. *)

val record_outcome : prepared -> cost:int -> outcome -> unit
(** Count the walk in the sink's metrics (walks / successes / failures /
    failure-depth histogram) and emit [Walk_succeeded]/[Walk_failed].
    Must fire exactly once per walk: {!walk} does it internally; the
    batched engine does it when a slot's walk completes. *)

val steps_of_last_walk : prepared -> int
(** Abstract cost (index-entry accesses + tuple fetches) of the most recent
    walk — the per-walk T in the optimizer's Var(X)·E[T] objective. *)

val value_of : prepared -> int array -> float
(** The aggregate expression on a successful path. *)
