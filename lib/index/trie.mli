(** Sorted column-oriented trie over one or more integer key columns: the
    one physical index, serving both the walk's equality and range steps
    and Leapfrog Triejoin.

    Layout: the table's row ids sorted lexicographically by the key tuple
    (ties broken by row id, so construction is deterministic).  Level 0 is
    stored CSR (compressed sparse row): the [d] distinct level-0 keys
    ascending, [d + 1] offsets giving each key's run of slots, and an
    open-addressing directory from key to rank, so an equality lookup is
    one directory probe and two offset reads, as in a hash index.  Each
    deeper level keeps one key per slot.  A {e node} at level [l] is a
    contiguous slot range [[lo, hi)] of rows agreeing on the first [l] key
    columns; its level-[l] keys are sorted, so seeking, advancing to the
    next distinct key and descending into a child are searches confined to
    the node.

    Three access styles share the structure:

    - {!find} and {!run_start} locate one level-0 key's run, the equality
      lookup behind {!Index.locate_eq};
    - {!narrow_start} refines a node by a key range at a level: the
      range locate behind {!Index.locate_range} and the narrow behind
      {!Index.narrow}, which the walker's constraint pre-intersection
      stacks once per folded non-tree edge;
    - {!cursor} iterates the distinct keys of a node in sorted order with
      [seek]/[next]: the leapfrog intersection primitive of the
      worst-case-optimal exact executor, and stratified GROUP BY's walk
      over the groups. *)

type t

val build : Wj_storage.Table.t -> columns:int array -> t
(** Raises [Invalid_argument] when [columns] is empty.  Groups the rows
    by level-0 key through the directory in row order, sorts the distinct
    keys, then sorts each level-0 run by the deeper columns: O(n + d log d)
    for one column. *)

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

val find : t -> int -> int
(** The level-0 key's rank among the distinct keys, or -1 when absent.
    One directory lookup, counted as a probe. *)

val run_start : t -> int -> int
(** [run_start t r] is the first slot of rank [r]'s run;
    [run_start t (r + 1)] ends it.  Valid for [0 <= r <= d]. *)

val narrow_start : t -> level:int -> lo:int -> hi:int -> int -> int
(** Narrowing a node to the slots whose level-[level] key lies in
    [[klo, khi]] takes two searches:
    [let nlo = narrow_start t ~level ~lo ~hi klo] is the first slot in
    [[lo, hi)] with key [>= klo], counted as the narrow's one probe, and
    [upper_bound t ~level ~lo:nlo ~hi khi] ends the narrowed range.
    At level 0 both search the distinct keys.  [[lo, hi)] must be a node
    at [level] (level keys sorted), which holds for the root
    [[0, length)] at level 0 and for any range produced by narrowing
    level [level - 1] to a single key.  A key {e range} is therefore only
    valid as the last narrowing step (band edges order last).  Two ints,
    no pair, so a walk step narrows without allocating. *)

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

val probes : t -> int
(** Lifetime lookup count: one per {!find}, {!narrow_start},
    {!next} and {!seek}. *)
