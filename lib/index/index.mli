(** Facade over the two physical index kinds.

    Every consumer — walker, exact executor, optimizer, registry — speaks
    one capability surface: [count] ("how many neighbours does this tuple
    have?"), [nth] ("give me the k-th neighbour") and [locate] (a span
    answering both at once, which a caller then narrows, selects one row
    from, or scans).  Equality edges are served
    by either kind; band/range edges, Olken starts on a range predicate
    and stratified GROUP BY need the ordered one, a trie (a one-column
    trie is a sorted (key, row) array).  Leapfrog walks distinct keys with
    {!Trie}'s own cursors. *)

type kind =
  | Hash of Hash_index.t
  | Trie of Trie.t

type t = { kind : kind; column : int }
(** An index over integer column(s) of a table; [column] is the (first)
    key column, the one equality/range lookups address. *)

val build_hash : Wj_storage.Table.t -> column:int -> t

val build_trie : Wj_storage.Table.t -> columns:int list -> t
(** Multi-column sorted trie; lookups below address the first column,
    deeper levels serve {!narrow} pre-intersection and leapfrog.
    Raises [Invalid_argument] on an empty column list. *)

val as_trie : t -> Trie.t option
(** The underlying trie, for its distinct-key cursors. *)

val count_eq : t -> int -> int
(** Number of rows whose indexed column equals the key. *)

val nth_eq : t -> int -> int -> int
(** [nth_eq t key k]: row id of the k-th row with the key.
    Raises [Invalid_argument] when out of range. *)

val count_range : t -> lo:int -> hi:int -> int
(** Inclusive range count.  Raises [Invalid_argument] on a hash index. *)

val nth_range : t -> lo:int -> hi:int -> int -> int
(** Row id of the k-th row in the inclusive range.
    Raises [Invalid_argument] on a hash index or when out of range. *)

val supports_range : t -> bool

(** {2 Located probes}

    Every read of an index's rows goes one way: locate the key's rows
    once, {!narrow} the span by deeper trie levels if the caller folds
    more keys, then select one row ({!located_nth} at a drawn rank) or
    scan them all ({!located_nth} at every rank below {!located_count},
    in slot order).  Hash groups and trie slot ranges are one shape, a
    span: a slice of the index's own row array, so a select is one array
    read.

    The locate writes into a caller-owned {!located} made once per index
    with {!locator}, so a walk step allocates nothing.  A span located
    once and never overwritten (an Olken start's fixed range) serves any
    number of selects with no further probe.
    [located_nth l k] returns the same row id as [nth_eq]/[nth_range]
    with the same key and [k]. *)

type located
(** A locate buffer bound to one index: after a locate, an answered count
    and the address of the rows that back it.  Valid as long as the index
    is not rebuilt; each locate overwrites the previous one. *)

val locator : t -> located
(** A fresh buffer for the index's locates, holding an empty probe. *)

val locate_eq : located -> int -> unit
(** Locate the rows matching a key: one directory lookup (hash), one
    level-0 narrow (trie).  Counted as one probe by {!probes}. *)

val locate_range : located -> lo:int -> hi:int -> unit
(** Range variant.  Raises [Invalid_argument] on a hash index. *)

val narrow : located -> level:int -> lo:int -> hi:int -> unit
(** [narrow l ~level ~lo ~hi] keeps the located rows whose level-[level]
    key lies in [[lo, hi]]: one binary search, counted as one probe, and
    the end of the run found from there.  The span must be a trie node
    at [level] (its level keys sorted): a level-0 locate of one key,
    narrowed by one key at each level in between.  A key range is
    therefore only valid at the last level narrowed.  Raises
    [Invalid_argument] on a hash span, which has no levels. *)

val located_count : located -> int
(** The neighbour count [d]; 0 for an absent key.  Free — the locate
    already computed it. *)

val located_nth : located -> int -> int
(** Row id of the k-th located row; same row as [nth_eq]/[nth_range].
    Raises [Invalid_argument] out of range. *)

(** {2 Cost and accounting} *)

val count_cost : t -> int
(** Abstract cost of one locate, in index-entry accesses: 1 for hash (a
    group's length is two adjacent offsets), [key columns x ceil(log2 n)]
    for a trie (one binary search per level of the narrow chain).  A
    select out of a locate is a span read and costs nothing more.  Feeds
    the optimizer's E[T] estimate and the I/O simulation
    ({!Wj_iosim.Cost_model.index_level_cost} is calibrated against these
    units). *)

val probes : t -> int
(** Lifetime query-probe count of the underlying physical index (directory
    lookups for hash, binary searches for trie).  Always on; the observability layer snapshots these into
    gauges.  An index is shared by every query over its catalog's
    {!Wj_core.Registry.store}, so the count spans them all. *)
