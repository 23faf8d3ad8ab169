(** The index every consumer speaks: a {!Trie} over one or more integer
    columns of a table, with its lookups addressing the first column.

    Walker, exact executor, optimizer and registry use one capability
    surface: [locate] (a span answering "how many neighbours does this
    tuple have?" and "give me the k-th neighbour" at once, which a caller
    then narrows, selects one row from, or scans).  An equality locate is
    one lookup in the trie's level-0 key directory, as in a hash index; a
    range locate is a search over the distinct level-0 keys; deeper levels
    serve {!narrow}.  Leapfrog and stratified GROUP BY walk distinct keys
    with {!Trie}'s own cursors. *)

type t = Trie.t

val build_trie : Wj_storage.Table.t -> columns:int list -> t
(** Multi-column sorted trie; lookups below address the first column,
    deeper levels serve {!narrow} pre-intersection and leapfrog.
    Raises [Invalid_argument] on an empty column list. *)

(** {2 Located probes}

    Every read of an index's rows goes one way: locate the key's rows
    once, {!narrow} the span by deeper trie levels if the caller folds
    more keys, then select one row ({!located_nth} at a drawn rank) or
    scan them all ({!located_nth} at every rank below {!located_count},
    in slot order).  A span is a slice of the trie's own row array, so a
    select is one array read.

    The locate writes into a caller-owned {!located} made once per index
    with {!locator}, so a walk step allocates nothing.  A span located
    once and never overwritten (an Olken start's fixed range) serves any
    number of selects with no further probe. *)

type located
(** A locate buffer bound to one index: after a locate, an answered count
    and the address of the rows that back it.  Valid as long as the index
    is not rebuilt; each locate overwrites the previous one. *)

val locator : t -> located
(** A fresh buffer for the index's locates, holding an empty probe. *)

val locate_eq : located -> int -> unit
(** Locate the rows matching a key: one directory lookup and two offset
    reads.  Counted as one probe by {!probes}.  A key's rows come in
    (deeper keys, row) order, so on a one-column index in row order. *)

val locate_range : located -> lo:int -> hi:int -> unit
(** Locate the rows whose key lies in [[lo, hi]]: one search over the
    distinct keys, counted as one probe. *)

val narrow : located -> level:int -> lo:int -> hi:int -> unit
(** [narrow l ~level ~lo ~hi] keeps the located rows whose level-[level]
    key lies in [[lo, hi]]: one binary search, counted as one probe, and
    the end of the run found from there.  The span must be a trie node
    at [level] (its level keys sorted): a level-0 locate of one key,
    narrowed by one key at each level in between.  A key range is
    therefore only valid at the last level narrowed. *)

val located_count : located -> int
(** The neighbour count [d]; 0 for an absent key.  Free — the locate
    already computed it. *)

val located_nth : located -> int -> int
(** Row id of the k-th located row.  Raises [Invalid_argument] out of
    range. *)

(** {2 One-shot lookups}

    Each is one locate into a fresh buffer, so one probe per call. *)

val count_eq : t -> int -> int
(** Number of rows whose indexed column equals the key. *)

val nth_eq : t -> int -> int -> int
(** [nth_eq t key k]: row id of the k-th row with the key.
    Raises [Invalid_argument] when out of range. *)

val count_range : t -> lo:int -> hi:int -> int
(** Inclusive range count. *)

val nth_range : t -> lo:int -> hi:int -> int -> int
(** Row id of the k-th row in the inclusive range.
    Raises [Invalid_argument] when out of range. *)

(** {2 Cost and accounting} *)

val count_cost : t -> range:bool -> int
(** Abstract cost of one locate, in index-entry accesses: 1 for an
    equality locate ([range = false]) on a one-column index (a directory
    lookup, then a run's length from two adjacent offsets); otherwise
    [key columns x ceil(log2 n)], one binary search per level of the
    narrow chain.  A select out of a locate is a span read and costs
    nothing more.  Feeds the optimizer's E[T] estimate and, through the
    walk's cost, the I/O simulation ([Wj_iosim.Sim.sink] charges each
    unit as one RAM access). *)

val probes : t -> int
(** Lifetime query-probe count of the trie (directory lookups and
    searches).  Always on; the observability layer snapshots these into
    gauges.  An index is shared by every query over its catalog's
    {!Wj_core.Registry.store}, so the count spans them all. *)
