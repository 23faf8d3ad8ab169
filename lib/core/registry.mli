(** Physical indexes available to a query, keyed by (table position, column).

    Walk-plan generation treats index availability as the ground truth for
    which directions a walk may take (§4.1): an edge R_a → R_b exists only
    if R_b has an index on its column of the join condition.  Every index
    is a {!Wj_index.Trie}, which answers equality and band/range
    conditions alike.

    A registry is a per-query view over a {!store}, which holds the
    physical indexes.  Keep one store per catalog: the store keys an index
    by base-table name and key columns, so two tables of one name must not
    reach one store.  It never drops or rebuilds an index, since no code
    path mutates an indexed table.  An index depends on its table and
    columns alone, so a query's registry depends on the query alone, never
    on what the store built before. *)

type store
(** Every index built over one catalog's tables.  Safe to share across
    domains: lookups and builds hold its lock. *)

val create_store : unit -> store

type t

val create : unit -> t
(** An empty registry over a fresh store. *)

val store : t -> store
(** For a sub-query over the same catalog. *)

val add : t -> pos:int -> column:int -> Wj_index.Index.t -> unit
(** Later additions overwrite earlier ones for the same slot. *)

val find : t -> pos:int -> column:int -> Wj_index.Index.t option

val build_for_query : ?store:store -> Query.t -> t
(** Registers every index the query can use: the column's one-column trie
    for each join-condition side and for every integer predicate column,
    enabling Olken sampling at the walk's start table.  One base-table
    column has one index, shared by every slot over it (aliased tables
    share indexes, as in a real system), and it is the physical index
    {!ensure_trie} hands out for that one column.  Indexes come from
    [store] (default: a fresh one), which builds each on first
    request. *)

val ensure_trie :
  t -> Wj_storage.Table.t -> pos:int -> columns:int list -> Wj_index.Index.t
(** The trie index over [columns] of the table at [pos], taken from the
    registry's store (built there on first request) and recorded under
    (position, column list) for {!export_metrics} and {!total_entries}. *)

val iter : t -> (pos:int -> column:int -> Wj_index.Index.t -> unit) -> unit
(** Visit every registered slot (iteration order unspecified; cached
    tries are not slots and are not visited). *)

val export_metrics : t -> Wj_obs.Metrics.t -> unit
(** Snapshot each index's lifetime probe count into an
    ["index.pos<i>.col<j>.probes"] gauge. *)

val total_entries : t -> int
(** Combined entry count across all indexes (memory accounting). *)
