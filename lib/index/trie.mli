(** Sorted column-oriented trie over one or more integer key columns — the
    index shape of Leapfrog Triejoin.

    Layout: the table's row ids sorted lexicographically by the key tuple
    (ties broken by row id, so construction is deterministic), plus one
    flat key array per level.  A {e node} at level [l] is a contiguous
    slot range [[lo, hi)] of rows agreeing on the first [l] key columns;
    its level-[l] keys are sorted, so seeking, advancing to the next
    distinct key and descending into a child are all binary searches
    confined to the node.

    Two access styles share the structure:

    - {!narrow_start} refines a node by a key range at the next level — the
      walker's constraint pre-intersection stacks one narrow per folded
      non-tree edge and samples uniformly from the surviving slot range;
    - {!cursor} iterates the distinct keys of a node in sorted order with
      [seek]/[next] — the leapfrog intersection primitive of the
      worst-case-optimal exact executor. *)

type t

val build : Wj_storage.Table.t -> columns:int array -> t
(** Raises [Invalid_argument] when [columns] is empty. *)

val build_filtered :
  ?keep:(int -> bool) -> Wj_storage.Table.t -> columns:int array -> t
(** Like {!build} but restricted to rows satisfying [keep] — used to fold
    per-table predicates into query-local tries so intersection never
    visits a row a predicate would discard. *)

val levels : t -> int
(** Number of key columns. *)

val length : t -> int
(** Number of (kept) rows. *)

val row : t -> int -> int
(** [row t slot]: row id stored at a sorted slot. *)

val rows : t -> int array
(** The row ids in slot order.  The trie's own storage: read it, never
    write it. *)

val narrow_start : t -> level:int -> lo:int -> hi:int -> int -> int
(** Narrowing a node to the slots whose level-[level] key lies in
    [[klo, khi]] takes two binary searches:
    [let nlo = narrow_start t ~level ~lo ~hi klo] is the first slot in
    [[lo, hi)] with key [>= klo], counted as the narrow's one probe, and
    [upper_bound t ~level ~lo:nlo ~hi khi] ends the narrowed range.
    [[lo, hi)] must be a node at [level] (level keys sorted), which holds
    for the root [[0, length)] at level 0 and for any range produced by
    narrowing level [level - 1] to a single key.  A key {e range} is
    therefore only valid as the last narrowing step (band edges order
    last).  Two ints, no pair, so a walk step narrows without
    allocating. *)

val upper_bound : t -> level:int -> lo:int -> hi:int -> int -> int
(** First slot in [[lo, hi)] with level key [> k]. *)

(** {2 Distinct-key cursor} *)

type cursor

val cursor : t -> level:int -> lo:int -> hi:int -> cursor
(** Cursor over the distinct level-[level] keys of the node [[lo, hi)],
    positioned on the first key (or at the end when the node is empty). *)

val at_end : cursor -> bool
val key : cursor -> int
(** Current distinct key.  Undefined {!at_end}. *)

val child : cursor -> int * int
(** Slot range of the current key's run — the child node at the next
    level (or, at the last level, the matching rows themselves). *)

val next : cursor -> unit
(** Advance past the current key's run to the next distinct key. *)

val seek : cursor -> int -> unit
(** Position on the least key [>= k]; never moves backwards (seeking
    below the current key is a no-op), so repeated seeks are monotone. *)

(** {2 Level-0 single-column index operations}

    The facade ({!Index}) serves equality and range lookups off the first
    key column through these; counts over a sorted run are subtractions,
    so a trie answers them in one binary search. *)

val count_eq : t -> int -> int
val nth_eq : t -> int -> int -> int
val count_range : t -> lo:int -> hi:int -> int
val nth_range : t -> lo:int -> hi:int -> int -> int
val iter_eq : t -> int -> (int -> unit) -> unit
val iter_range : t -> lo:int -> hi:int -> (int -> unit) -> unit

val probes : t -> int
(** Lifetime narrow/seek count (one per binary-search operation). *)

val reset_probes : t -> unit
