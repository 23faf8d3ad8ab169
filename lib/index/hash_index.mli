(** Secondary hash index: integer join key -> row ids.

    This is the index the random walk leans on for equality joins: one probe
    gives the neighbour count [d_j(t)] in O(1), and the walk then picks the
    k-th neighbour uniformly, also in O(1) — exactly the cost model of
    §3.7 ("the whole algorithm takes O(kn) time, assuming hash tables are
    used as indexes").

    The layout is CSR (compressed sparse row), three flat [int] arrays:
    - [rows]: every row id of the table, grouped by key, each group in
      ascending row order;
    - [offsets]: group [g] is [rows.(offsets.(g))] to
      [rows.(offsets.(g + 1) - 1)];
    - an open-addressing directory (linear probing, at most half full)
      from each distinct key to its group.

    A lookup reads one directory slot (rarely a few) and two adjacent
    offsets; selecting the k-th row of a group is one array read.  Nothing
    is allocated after the build, and the index holds no pointer but its
    three arrays. *)

type t

val build : Wj_storage.Table.t -> column:int -> t
(** Scan [table] and index the integer values of [column].
    Raises if a cell in the column is not [Int]. *)

val table_column : t -> int
(** The column this index was built on. *)

val count : t -> int -> int
(** Number of rows whose key equals the argument. *)

val nth : t -> int -> int -> int
(** [nth t key k] is the row id of the k-th (0-based, in row order) row
    matching [key]; raises [Invalid_argument] on an absent key or when
    [k] is out of range. *)

(** {2 Groups}

    The span interface {!Index.locate_eq} reads: one counted lookup finds
    a key's group, and the group is a slice of {!rows}. *)

val group : t -> int -> int
(** The key's group, or -1 when the key is absent.  One probe. *)

val offset : t -> int -> int
(** [offset t g] is the position in {!rows} of group [g]'s first row;
    [offset t (g + 1)] ends the group.  Valid for [0 <= g <= distinct_keys]. *)

val rows : t -> int array
(** The row ids, grouped by key.  The index's own storage: read it, never
    write it. *)

(** {2 Accounting} *)

val probes : t -> int
(** Number of query lookups ([count]/[nth]/[group]) served
    since the build.  An always-on plain-int counter (one store per
    lookup); approximate under multicore races. *)

val distinct_keys : t -> int
val total_entries : t -> int
