(** Secondary hash index: integer join key -> row ids.

    This is the index the random walk leans on for equality joins: one probe
    gives the neighbour count [d_j(t)] in O(1), and the walk then picks the
    k-th neighbour uniformly, also in O(1) — exactly the cost model of
    §3.7 ("the whole algorithm takes O(kn) time, assuming hash tables are
    used as indexes"). *)

type t

val build : Wj_storage.Table.t -> column:int -> t
(** Scan [table] and index the integer values of [column].
    Raises if a cell in the column is not [Int]. *)

val create_empty : column:int -> t
(** Empty index for incremental insertion. *)

val insert : t -> key:int -> row:int -> unit

val table_column : t -> int
(** The column this index was built on. *)

val count : t -> int -> int
(** Number of rows whose key equals the argument. *)

val find : t -> int -> int Wj_util.Vec.t option
(** The bucket holding a key's rows, located with one lookup (counted as
    one probe), or [None] when the key is absent.  A walk step reads the
    neighbour count and selects its drawn row from the one bucket, so it
    pays one hash lookup, not two.  The returned vector is the index's
    own storage: do not mutate it. *)

val nth : t -> int -> int -> int
(** [nth t key k] is the row id of the k-th (0-based, insertion-ordered)
    row matching [key]; raises [Invalid_argument] when out of range. *)

val iter_key : t -> int -> (int -> unit) -> unit

val probes : t -> int
(** Number of query lookups ([count]/[find]/[nth]/[iter_key]) served
    since the build or the last {!reset_probes}.  An always-on plain-int
    counter (one store per lookup); approximate under multicore races. *)

val reset_probes : t -> unit

val distinct_keys : t -> int
val total_entries : t -> int
val memory_words : t -> int
(** Rough size in machine words, used by the buffer-pool cost model. *)
