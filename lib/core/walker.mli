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
    to the estimator as zeros (§3.1).

    [scan] runs the same compiled steps exhaustively: from a given start
    row it visits every row of each step's span, which is the exact
    executor's nested loop and the index ripple join's completion. *)

type outcome =
  | Success of { path : int array; inv_p : float }
      (** [path.(pos)]: the row bound at table position [pos].  The array
          is reused by the next {!walk} on the same walker. *)
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
    [Nontree_reject]) and, when it carries a metrics registry, per-phase
    step counts, row fetches, index probes, rejection causes and a
    failure-depth histogram under the ["walker.*"] families.  Handles
    are resolved here, once: a no-op sink costs one branch per site and
    changes no PRNG draw, so fixed-seed results are bit-for-bit those of
    an unobserved run.  The I/O simulator ([Wj_iosim.Sim.sink]) charges
    each walk once, on its [Walk_succeeded] / [Walk_failed] event. *)

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
    and a [Walk_succeeded]/[Walk_failed] event.  A [Success]'s [path] is
    the walker's own buffer: it is valid until the next [walk] on the
    same [prepared], which overwrites it, so a caller reads it at once
    and copies what it keeps.

    Every step takes one path.  It locates the bound parent row's
    neighbour span in the step's index once ({!Query.locate_join}); when
    the step carries a pre-intersection spec ({!Walk_plan.step.isect})
    that index is the spec's trie and the span is narrowed by every
    folded non-tree edge ({!Wj_index.Index.narrow}).  The step then draws
    one of the span's d rows uniformly, selects it out of the span,
    binds and vets it.  It costs the index's [count_cost] plus one tuple
    fetch, and multiplies the walk's inverse probability by d, the
    intersected count when edges are folded.  A step allocates nothing:
    it locates into a buffer the step owns, boxes no float and runs its
    checks in loops, and the path is bound into the [prepared]'s buffer,
    so a walk's minor allocation is its outcome.

    An empty span consumes no PRNG draw.  An empty fold is a non-tree
    reject caught before sampling: it does not count the step's table in
    the failure depth, and is attributed to the folded edge in the
    per-edge reject counters (["walker.rejects.nontree.<edge>"]) and
    [Nontree_reject] events, as are post-bind non-tree check failures.

    An Olken start selects its row out of the predicate's range, located
    once by {!prepare}: a start probes no index. *)

val scan : prepared -> int array -> start_row:int -> (int array -> unit) -> int
(** [scan t path ~start_row emit] enumerates every completion of
    [start_row] bound at the plan's start table, in [path] (length
    [Query.k], overwritten): the exact counterpart of {!walk} on the same
    compiled steps.  It vets the start row against every predicate on
    its table, the Olken-sampled one included, and the non-tree edges
    due at the start.  Then each step locates its span as {!walk} does,
    narrows it by every folded edge, and scans all of its rows in slot
    order, vetting each with the step's predicates and due non-tree
    edges.  Each complete path is passed to [emit], which must not keep
    [path] (the next completion overwrites it).

    It draws no random number and touches neither the sink nor
    {!steps_of_last_walk}, so it can run between walks without moving a
    fixed-seed result.  It shares the step buffers with {!walk}: one
    [prepared] serves one thread at a time.  Returns the rows it bound:
    the start row plus every row scanned at a step, vetted or not. *)

val steps_of_last_walk : prepared -> int
(** Abstract cost (index-entry accesses + tuple fetches) of the most recent
    walk — the per-walk T in the optimizer's Var(X)·E[T] objective. *)

val value_of : prepared -> int array -> float
(** The aggregate expression on a successful path. *)
