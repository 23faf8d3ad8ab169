(** Counted B+-tree: an ordered secondary index with order statistics.

    Keys are integers (dates, keys, dictionary-encoded categories); payloads
    are row ids.  Duplicate keys are allowed.  Every node carries its subtree
    entry count, which turns the tree into an order-statistics structure:

    - [count_range] answers "how many rows satisfy lo <= key <= hi" in
      O(log n) — this is how a selection predicate's qualifying cardinality
      replaces |R| in the Horvitz–Thompson weight (§3.5);
    - [nth_in_range] retrieves the k-th qualifying row in O(log n), which is
      Olken's method for uniform sampling from an index: count, draw k,
      select.

    Insertion keeps counts exact, so sampling stays uniform as the tree
    grows.  An index is built once ({!of_table}) and never shrinks: there
    is no deletion. *)

type t

val create : ?min_degree:int -> unit -> t
(** [min_degree] (default 16) is the classic B-tree parameter t: nodes hold
    between t-1 and 2t-1 entries (the root may hold fewer).
    Raises [Invalid_argument] if [min_degree < 2]. *)

val length : t -> int
(** Total number of entries. *)

val insert : t -> key:int -> value:int -> unit

val count_eq : t -> int -> int
val count_range : t -> lo:int -> hi:int -> int
(** Inclusive bounds; 0 when [lo > hi]. *)

val rank_lt : t -> int -> int
(** Number of entries with key strictly below the argument. *)

val rank_le : t -> int -> int
(** Number of entries with key at most the argument. *)

val nth : t -> int -> (int * int)
(** [nth t r] is the entry of global rank [r] (0-based, key order, ties in
    insertion order at the leaf level). Raises [Invalid_argument] when out
    of range. *)

val nth_in_range : t -> lo:int -> hi:int -> int -> (int * int) option
(** [nth_in_range t ~lo ~hi k]: the k-th entry among those with
    lo <= key <= hi, or [None] when fewer than k+1 qualify. *)

val iter_range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [iter_range t ~lo ~hi f] calls [f key value] on qualifying entries in
    key order. *)

val probes : t -> int
(** Number of root-to-leaf query descents ([rank_lt]/[rank_le]/[nth]/
    [iter_range] and everything built on them: [count_range] costs two
    descents, [nth_in_range] three) since the build or the last
    {!reset_probes}.  An always-on plain-int counter; approximate under
    multicore races. *)

val reset_probes : t -> unit

val of_table : Wj_storage.Table.t -> column:int -> t
(** Index all rows of a table on an integer column. *)

val height : t -> int
val check_invariants : t -> (unit, string) result
(** Structural validation used by the test suite: key ordering, separator
    bounds, occupancy, uniform leaf depth, exact subtree counts. *)
