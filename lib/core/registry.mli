(** Physical indexes available to a query, keyed by (table position, column).

    Walk-plan generation treats index availability as the ground truth for
    which directions a walk may take (§4.1): an edge R_a → R_b exists only
    if R_b has an index on its column of the join condition, of a kind that
    can answer the condition (hash or ordered for equality, ordered for
    band/range joins). *)

type t

val create : unit -> t

val add : t -> pos:int -> column:int -> Wj_index.Index.t -> unit
(** Later additions overwrite earlier ones for the same slot. *)

val find : t -> pos:int -> column:int -> Wj_index.Index.t option

val can_serve : t -> pos:int -> column:int -> op:Query.join_op -> bool
(** Is there an index on the slot able to answer the join op? *)

val build_for_query :
  ?ordered_predicates:bool -> ?share:Query.t * t -> Query.t -> t
(** Builds every index the query can use: one per join-condition side (hash
    for equality, ordered B+-tree for band joins) and — when
    [ordered_predicates] (default true) — an ordered index on every
    predicate column, enabling Olken sampling at the walk's start table.
    [share] reuses indexes from a previous registry when positions refer to
    the same physical table and column (aliased tables share indexes, as in
    a real system). *)

val ensure_trie :
  t -> Wj_storage.Table.t -> pos:int -> columns:int list -> Wj_index.Index.t
(** The trie index over [columns] of the table at [pos], building it on
    first request.  Tries are cached per (position, column list) and
    physically shared across positions aliasing the same base table —
    same policy as {!build_for_query}'s single-column slots. *)

val iter : t -> (pos:int -> column:int -> Wj_index.Index.t -> unit) -> unit
(** Visit every registered slot (iteration order unspecified; cached
    tries are not slots and are not visited). *)

val export_metrics : t -> Wj_obs.Metrics.t -> unit
(** Snapshot each index's lifetime probe count into an
    ["index.pos<i>.col<j>.probes"] gauge. *)

val total_entries : t -> int
(** Combined entry count across all indexes (memory accounting). *)
