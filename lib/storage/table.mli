(** Columnar, type-specialized in-memory tables.

    Storage is one dense typed vector per schema column: [TInt] columns are
    flat [int array]s, [TFloat] columns flat [float array]s (no per-value
    boxing), and [TStr] columns dictionary-encoded ids over a per-column
    string pool.  Each column carries a null bitmap; a null row slot holds a
    sentinel under a set bit.  Tuples are addressed by row id (their
    insertion position) and the id space stays dense — there is no delete;
    analytical workloads in the paper are read-only after load (§3.6).

    Two write paths exist: the {!Value.t} row shim ({!insert}) kept for
    SQL/exec/display code, and the typed column writers
    ({!push_int}/{!push_float}/{!push_str} + {!commit_row})
    that bulk loaders use to fill columns without materializing a boxed
    value per cell.  Random-walk hot paths read through {!cursor}
    snapshots and compiled readers, never through [Value.t].

    A table can alternatively be {e paged}: written once to fixed-size
    on-disk column segments ({!write_pages}) and reopened
    ({!open_paged}) with every data page faulted through a shared
    {!Buffer_pool} on read.  A paged table is read-only; its accessors
    ({!int_reader}, {!cursor}, ...) have identical
    semantics — including null sentinels and dictionary ids — so
    indexes, walks and exact executors run unchanged on either backing.
    String dictionaries and null bitmaps are faulted in once at open and
    then held resident; only the per-row column data pages page in and
    out under the pool's LRU policy. *)

type t

val create : ?capacity:int -> name:string -> schema:Schema.t -> unit -> t
(** [capacity] pre-sizes every column's vector — bulk loaders that know
    their row count avoid all doubling copies. *)

val name : t -> string
val schema : t -> Schema.t
val length : t -> int

(** {2 Typed column writers (bulk-load fast path)} *)

val push_int : t -> col:int -> int -> unit
val push_float : t -> col:int -> float -> unit
val push_str : t -> col:int -> string -> unit
(** Appends one cell to the column; raises [Invalid_argument] when the
    column has a different type. *)

val commit_row : t -> int
(** Seals the staged row and returns its id.  Raises [Invalid_argument]
    (naming the offending column) unless every column received exactly one
    value since the previous commit. *)

val rollback_row : t -> unit
(** Discards any cells staged since the last {!commit_row}. *)

(** {2 [Value.t] row shim (compatibility path)} *)

val insert : t -> Value.t array -> int
(** Appends a row (which must match the schema) and returns its row id.
    Cells are decomposed into the typed columns; the array itself is not
    retained. *)

val row : t -> int -> Value.t array
(** The row reconstructed as boxed values (a fresh array per call). *)

val cell : t -> int -> int -> Value.t
(** [cell t row col]. *)

val int_cell : t -> int -> int -> int
(** Typed read used by indexes and walks; raises [Invalid_argument] naming
    the table, column and row when the cell is NULL or the column is not
    [TInt]. *)

val float_cell : t -> int -> int -> float
(** Numeric coercion of the cell ([TInt] widens); raises with the same
    diagnostics as {!int_cell} on NULL or non-numeric columns. *)

val iteri : (int -> Value.t array -> unit) -> t -> unit
val fold : ('acc -> Value.t array -> 'acc) -> 'acc -> t -> 'acc
val column_index : t -> string -> int
(** Raises [Not_found] for unknown columns. *)

(** {2 Column cursors (compiled-access snapshots)}

    A cursor exposes the column's live backing array for zero-indirection
    reads.  It is valid while the table is not mutated — walk preparation
    compiles predicates and extractors against cursors once, then steps
    read plain array cells. *)

type cursor =
  | Int_cursor of int array
  | Float_cursor of float array
  | Str_cursor of int array * string array
      (** (dictionary ids per row, pool snapshot: id -> string) *)
  | Paged_int_cursor of (int -> int)
      (** fault-capable read of a paged [TInt] column (no null check,
          like [Int_cursor]) *)
  | Paged_float_cursor of (int -> float)
  | Paged_str_cursor of (int -> int) * string array
      (** (fault-capable id read, resident pool: id -> string) *)

val cursor : t -> int -> cursor

val null_mask : t -> int -> Wj_util.Bitset.t
(** The column's null bitmap ([Bitset.any] is false for null-free columns,
    letting compiled readers skip the per-row test). *)

val int_reader : t -> int -> int -> int
(** [int_reader t col] compiles a row -> int reader for a [TInt] column:
    a bare flat read when the column holds no nulls, a bitmap-checked read
    otherwise.  Raises (lazily, per call) on non-int columns, matching
    {!int_cell}'s diagnostics. *)

val float_reader : t -> int -> int -> float
(** Compiled numeric reader with {!float_cell}'s coercion semantics. *)

(** {2 String dictionaries} *)

val dict_id : t -> col:int -> string -> int option
(** Dictionary id of a string, if it occurs in the column. *)

(** {2 Paged on-disk backing} *)

val is_paged : t -> bool
(** True when the table's columns are segment-backed (read-only; every
    data read faults through the owning buffer pool). *)

val write_pages : t -> dir:string -> unit
(** Writes an in-memory table to [dir/<name>/] as fixed-size column
    segments: a text superblock (schema, row count, page geometry),
    one [col<i>.dat] of 8-byte slots per column, a null bitmap
    [col<i>.nulls] per column, and a [col<i>.dict] string dictionary per
    [TStr] column.  A page holds {!Segment.default_rows_per_page} rows
    (32, matching the iosim cost model).  Raises [Invalid_argument] on an
    already-paged table. *)

val open_paged : pool:Buffer_pool.t -> dir:string -> name:string -> t
(** Reopens a table written by {!write_pages}.  Data pages fault through
    [pool] on demand; dictionaries and null bitmaps load through [pool]
    once at open and stay resident.  Raises [Invalid_argument] when the
    pool's [page_bytes] does not match the on-disk [rows_per_page]. *)
