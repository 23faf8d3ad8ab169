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
  | Advanced of float
      (** One more table bound and vetted; multiply the walk's running
          [inv_p] by the factor (the start phase's factor is the start
          cardinality, a step's factor is the neighbour count d). *)
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
(** Advance one plan step: probe the step's index from the bound parent
    row, sample a uniform neighbour, bind and vet it.

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
    recent [advance_start]/[advance_step]/[resolve_step] call. *)

(** {2 Issue/resolve: interleaved prefetching}

    {!advance_step} split at the PRNG draw.  [issue_step] runs the
    count-and-locate half — probe the step's index from the bound parent,
    keep the located neighbour set ({!Wj_index.Index.located} or the
    narrowed trie slot range), and touch its backing memory plus the head
    candidate row's table cells through [Sys.opaque_identity] (paged
    columns fault their page into the buffer pool).  [resolve_step] runs
    the draw-bind-vet half against what was issued.

    [issue_step] draws nothing from the PRNG, so the batched engine can
    issue {e every} in-flight slot's probe before resolving {e any} of
    them (ThunderRW's step interleaving): the resolve sweep then draws in
    slot order, exactly the sequence the classic per-slot
    [advance_step] sweep draws — estimates are bit-for-bit identical with
    prefetching on or off.

    Cost accounting charges the probe once, not twice: issue charges the
    index's [count_cost], resolve adds only
    {!Wj_index.Index.resolve_cost} [+ 1] (the classic fused path
    re-charges a full [probe_cost] for the select). *)

type issued
(** One slot's in-flight probe between issue and resolve; a mutable
    scratch record the engine reuses across walks. *)

val make_issued : unit -> issued

val issued_step : issued -> int
(** The step index the pending locate answers, or [-1] when nothing is
    issued (fresh, or consumed by {!resolve_step}). *)

val issue_step : prepared -> issued -> int array -> int -> unit
(** [issue_step t iss path i] locates step [i]'s neighbour set from the
    bound parent row in [path] and issues the prefetch touches.  Emits the
    step's [Index_probe] (same position and cost as the classic path) and
    bumps ["walker.prefetch.issued"]; consumes no PRNG draw. *)

val resolve_step :
  prepared -> Wj_util.Prng.t -> issued -> int array -> int -> phase
(** Complete an issued step: draw (iff the located set is non-empty, as
    the classic path does), bind and vet.  Consumes the issue; raises
    [Invalid_argument] when nothing was issued for a plain step. *)

val note_prefetch_batched : prepared -> int -> unit
(** Credit ["walker.prefetch.batched"] with the number of issues that
    shared one engine sweep with at least one other — the part of
    {!issue_step} traffic that actually overlapped a cache miss. *)

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
