(** A named collection of tables.

    The catalog is what the SQL binder consults: which tables exist, by
    name.  It holds no index metadata; which indexes a query can walk is
    decided per query by [Wj_core.Registry]. *)

type t

val create : unit -> t

val add_table : t -> Table.t -> unit
(** Raises [Invalid_argument] if a table with the same name exists. *)

val epoch : t -> int
(** Data-version counter, starting at 0.  Anything that caches results
    derived from the catalog's table {e contents} (the daemon's estimate
    cache) keys those results on the epoch: a cached entry recorded at an
    older epoch is stale.  Load-once catalogs keep epoch 0 forever;
    future update paths (inserts/deletes) must call {!bump_epoch}.
    {!map_tables} preserves the epoch — swapping tables for their paged
    twins does not change the data. *)

val bump_epoch : t -> unit
(** Declare the table contents changed: invalidates every
    epoch-keyed cache entry derived from this catalog. *)

val table : t -> string -> Table.t option
val tables : t -> Table.t list

val map_tables : t -> (Table.t -> Table.t) -> t
(** A new catalog with every table replaced by [f table] (same names).
    Used by {!Backend} to swap the in-memory tables for their paged
    equivalents without touching callers' bindings. *)
