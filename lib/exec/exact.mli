(** Exact query execution: the ground truth and the "full join" baseline.

    Two executors behind one surface.  The classic index-nested-loop join
    follows a walk plan but enumerates every index neighbour instead of
    sampling one: it is {!Wj_core.Walker.scan} from every start row.  The leapfrog executor is a worst-case-optimal multiway
    join: it builds per-table sorted tries keyed by the query's Eq-join
    variable classes and resolves one variable at a time by intersecting
    distinct-key cursors — on cyclic queries (triangles and denser) it
    avoids the intermediate blow-up the nested loop pays.  [Auto] picks
    leapfrog exactly for cyclic all-Eq queries and keeps the nested-loop
    path bit-for-bit for everything else, so fixed-seed goldens and
    summation order on tree-shaped queries are untouched. *)

type result = {
  value : float;  (** exact aggregate *)
  join_size : int;  (** number of qualifying join results *)
  rows_visited : int;  (** tuples touched, a machine-independent cost *)
}

type strategy =
  | Nested_loop  (** index-nested-loop along a walk plan *)
  | Leapfrog  (** leapfrog triejoin over per-table sorted tries *)
  | Auto  (** leapfrog iff the query is cyclic, all-Eq and applicable *)

val leapfrog_applicable : Wj_core.Query.t -> bool
(** Whether the leapfrog executor can run this query: every table keyed
    by at least one Eq-join variable, no variable keying two columns of
    one table, and the variable-sharing graph connected.  Band edges are
    allowed (they run as residual filters). *)

val aggregate :
  ?strategy:strategy ->
  ?plan:Wj_core.Walk_plan.t ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  result
(** Raises [Invalid_argument] when the nested-loop path is taken and the
    query admits no walk plan, or when [~strategy:Leapfrog] is forced on
    a query where {!leapfrog_applicable} is false.  [?plan] only affects
    the nested-loop path, which enumerates the plan the way
    {!Wj_core.Walker.walk} walks it ({!Wj_core.Walker.scan}): a plan with
    pre-intersected steps ({!Wj_core.Walk_plan.step.isect}) narrows each
    span by its folded edges, so every variant of a plan gives the same
    answer. *)

val group_aggregate :
  ?strategy:strategy ->
  ?plan:Wj_core.Walk_plan.t ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  (Wj_storage.Value.t * result) list
(** Per-group exact results, sorted by group key.
    Raises [Invalid_argument] without a GROUP BY clause. *)

val join_size : Wj_core.Query.t -> Wj_core.Registry.t -> int
(** Exact number of join results under the query's predicates. *)
