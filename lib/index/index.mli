(** Facade over the three physical index kinds.

    Every consumer — walker, exact executor, optimizer, registry — speaks
    one capability surface: [count] ("how many neighbours does this tuple
    have?"), [nth] ("give me the k-th neighbour"), [locate] (both at
    once, for the walker's step) and [iter].  Equality edges are served
    by any kind; band/range edges require an ordered one (B+-tree or
    trie).  Leapfrog walks distinct keys with {!Trie}'s own cursors. *)

type kind =
  | Hash of Hash_index.t
  | Ordered of Btree.t
  | Trie of Trie.t

type t = { kind : kind; column : int }
(** An index over integer column(s) of a table; [column] is the (first)
    key column, the one equality/range lookups address. *)

val build_hash : Wj_storage.Table.t -> column:int -> t
val build_ordered : Wj_storage.Table.t -> column:int -> t

val build_trie : Wj_storage.Table.t -> columns:int list -> t
(** Multi-column sorted trie; lookups below address the first column,
    deeper levels serve {!Trie.narrow} pre-intersection and leapfrog.
    Raises [Invalid_argument] on an empty column list. *)

val as_trie : t -> Trie.t option
(** The underlying trie, for multi-level operations the single-column
    surface cannot express. *)

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

val iter_eq : t -> int -> (int -> unit) -> unit
(** Iterate the row ids matching a key (exact executor's index join). *)

val iter_range : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Iterate row ids in an inclusive key range.
    Raises [Invalid_argument] on a hash index. *)

val supports_range : t -> bool

(** {2 Located probes}

    A walk step locates the physical structure that answers its probe
    (hash bucket, B+-tree base rank, trie slot range) once, reads the
    neighbour count off it, and selects the drawn row out of it.
    [located_nth l k] returns the same row id as [nth_eq]/[nth_range]
    with the same key and [k]. *)

type located
(** An answered count plus the address of the rows that back it.  Valid
    as long as the index is not rebuilt. *)

val locate_eq : t -> int -> located
(** Locate the rows matching a key: one bucket lookup (hash), two rank
    descents (B+-tree: the base rank and the count), one level-0 narrow
    (trie).  Counted as a [count]-style probe by {!probes}. *)

val locate_range : t -> lo:int -> hi:int -> located
(** Range variant.  Raises [Invalid_argument] on a hash index. *)

val located_count : located -> int
(** The neighbour count [d]; 0 for an absent key.  Free — the locate
    already computed it. *)

val located_nth : located -> int -> int
(** Row id of the k-th located row; same row as [nth_eq]/[nth_range].
    Raises [Invalid_argument] out of range. *)

val resolve_cost : t -> int
(** Abstract cost of {!located_nth} given an already-located probe: 0 for
    hash and trie (plain array read), [height] for a B+-tree (the select
    descent).  A walk step is charged [count_cost + resolve_cost]. *)

(** {2 Cost and accounting} *)

val probe_cost : t -> int
(** Abstract cost of one point lookup (a select/nth), in index-entry
    accesses: 1 for hash, one root-to-leaf descent ([height]) for a
    B+-tree, [key columns x ceil(log2 n)] for a trie. *)

val count_cost : t -> int
(** Abstract cost of one {e counted} lookup (a {!locate_eq}), the
    first half of a walk step.  This is where the structures genuinely differ: 1 for hash
    (bucket length is stored); [2 x height] for a counted B+-tree — a
    range count is two rank descents ([rank_le - rank_lt]), which the old
    flat-descent [probe_cost] under-charged; [key columns x ceil(log2 n)]
    for a trie (one binary search per level of the narrow chain).  Feeds
    the optimizer's E[T] estimate and the I/O simulation
    ({!Wj_iosim.Cost_model.index_level_cost} is calibrated against these
    units). *)

val probes : t -> int
(** Lifetime query-probe count of the underlying physical index (bucket
    lookups for hash, root-to-leaf descents for ordered, binary searches
    for trie).  Always on; the observability layer snapshots these into
    gauges. *)

val reset_probes : t -> unit
