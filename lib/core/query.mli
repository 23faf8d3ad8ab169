(** Logical join-aggregate queries.

    A query is the paper's SQL shape (§2):

    {v
    SELECT g, AGG(expression)
    FROM R_1, ..., R_k
    WHERE join conditions AND selection predicates
    GROUP BY g
    v}

    Tables are referenced positionally (0..k-1) so the same base table can
    appear twice under different aliases (TPC-H Q7 uses nation twice). *)

module Value = Wj_storage.Value
module Table = Wj_storage.Table

(** How two tables join.  [Band] generalises equality to θ-joins on ranges:
    [right - left ∈ [lo, hi]] covers [A = B] ([lo = hi = 0]),
    [A <= B <= A + 100], and one-sided inequalities with extreme bounds. *)
type join_op =
  | Eq
  | Band of { lo : int; hi : int }

type join_cond = {
  left : int * int;  (** (table position, column) *)
  right : int * int;
  op : join_op;
}

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type predicate =
  | Cmp of { table : int; column : int; op : cmp; value : Value.t }
  | Between of { table : int; column : int; lo : Value.t; hi : Value.t }
      (** Inclusive bounds. *)
  | Member of { table : int; column : int; values : Value.t list }

(** Arithmetic over the sampled path, evaluated to float. *)
type expr =
  | Col of int * int  (** (table position, column) *)
  | Const of float
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr

type t = {
  tables : Table.t array;
  names : string array;  (** display alias per position *)
  joins : join_cond list;
  predicates : predicate list;
  agg : Wj_stats.Estimator.agg;
  expr : expr;  (** ignored for COUNT *)
  group_by : (int * int) option;
}

val make :
  tables:(string * Table.t) list ->
  joins:join_cond list ->
  ?predicates:predicate list ->
  ?group_by:(int * int) option ->
  agg:Wj_stats.Estimator.agg ->
  expr:expr ->
  unit ->
  t
(** Validates positions/columns and that the join graph is connected.
    Raises [Invalid_argument] on malformed input. *)

val k : t -> int
(** Number of tables. *)

val eval_expr : t -> int array -> float
(** Evaluate the aggregated expression on a path of row ids (one per table
    position). *)

val group_key : t -> int array -> Value.t
(** The GROUP BY key of a path; raises if the query has no group-by. *)

val predicates_on : t -> int -> predicate list
(** Selection predicates attached to a table position. *)

val sargable_range : predicate -> (int * int * int) option
(** [Some (column, lo, hi)] when the predicate is an integer comparison
    or [BETWEEN] that an ordered index on [column] answers as the
    inclusive key range [[lo, hi]] ([<>], [IN] and non-integer values
    give [None]).  The Olken start and index-assisted ripple join sample
    from that range. *)

val check_predicate : t -> predicate -> int -> bool
(** [check_predicate q p row]: does the row of the predicate's table
    satisfy it? *)

val row_passes : t -> int -> int -> bool
(** [row_passes q pos row]: does the row satisfy all predicates on
    position [pos]? *)

val check_join : t -> join_cond -> int array -> bool
(** Does the (fully bound) path satisfy the join condition? *)

(** {2 Compiled accessors}

    The functions above read cells through the boxed {!Table.cell} shim;
    the [compile_*] family specializes the same semantics against the
    tables' typed column cursors once, so per-row evaluation on the walk
    hot path allocates and matches no [Value.t].  Compiled closures
    snapshot the current column storage: compile after the tables are
    loaded. *)

val compile_predicate : t -> predicate -> int -> bool
(** Closure equivalent of {!check_predicate} for one predicate, reading
    the column's flat array directly (dictionary-id comparison for string
    equality). *)

val compile_predicates : t -> int -> (int -> bool) array
(** All predicates on a table position, compiled, in predicate-list order. *)

val compile_join : t -> join_cond -> int array -> bool
(** Closure equivalent of {!check_join}. *)

val compile_expr : t -> int array -> float
(** Closure equivalent of {!eval_expr}: the aggregate expression compiled
    to typed column reads. *)

val int_key_reader : t -> pos:int -> col:int -> int -> int
(** Compiled join-key reader for a table position's integer column (the
    per-step index probe key). *)

val join_key_range : join_cond -> from_left:bool -> int -> int * int
(** [join_key_range cond ~from_left v]: inclusive key range that matching
    tuples on the other side must fall in, given the bound side's value.
    [from_left] means the left side is bound and we look up the right. *)

val locate_join : join_cond -> Wj_index.Index.located -> int -> unit
(** [locate_join cond l v]: locate into [l] the right side's rows that
    join a left-side row whose key is [v] — the keys of
    [join_key_range cond ~from_left:true v], by one equality locate for
    [Eq] and one range locate for [Band].  A walk step orients its
    condition parent-left, so this is every step's neighbour span:
    {!Walker.walk} selects one row from it and {!Walker.scan}, the only
    scanner, visits all of them (the exact executor and the index ripple
    join run on it).  [l] must be a locator of the right side's index. *)

val flip : join_cond -> join_cond
(** Same condition with sides swapped (Band bounds negated and swapped). *)

val selectivity_filter_sql : t -> string
(** Human-readable rendering of the predicate list (for logs and reports). *)
