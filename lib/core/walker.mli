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

val walk : prepared -> Wj_util.Prng.t -> outcome
(** One random walk.  It samples, binds and vets the start tuple, then
    advances one plan step at a time.  The sink sees [Walk_started], then
    the outcome: walks / successes / failures / failure-depth histogram,
    and a [Walk_succeeded]/[Walk_failed] event.  Every call returns a
    fresh [path].

    A plain step locates the bound parent row's neighbour set in the
    step's index once ({!Wj_index.Index.locate_eq}/[locate_range]), draws
    one of its d rows uniformly, selects it out of the locate, binds and
    vets it.  It costs the index's [count_cost + resolve_cost] plus one
    tuple fetch, and multiplies the walk's inverse probability by d.  A
    step allocates nothing: it locates into a buffer the step owns, boxes
    no float and runs its checks in loops, so a walk's minor allocation is
    its [path] and its outcome.

    When the step carries a pre-intersection spec ({!Walk_plan.step.isect})
    the neighbour set is first narrowed through the step's trie by every
    folded non-tree edge; the sample is uniform over the intersected set
    and its count is the HT factor.  An empty intersection is a non-tree
    reject caught before sampling: it consumes no PRNG draw, does not
    count the step's table in the failure depth, and is attributed to the
    folded edge in the per-edge reject counters
    (["walker.rejects.nontree.<edge>"]) and [Nontree_reject] events, as
    are post-bind non-tree check failures. *)

val steps_of_last_walk : prepared -> int
(** Abstract cost (index-entry accesses + tuple fetches) of the most recent
    walk — the per-walk T in the optimizer's Var(X)·E[T] objective. *)

val value_of : prepared -> int array -> float
(** The aggregate expression on a successful path. *)
