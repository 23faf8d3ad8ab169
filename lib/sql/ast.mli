(** Abstract syntax of the online-aggregation SQL dialect.

    The grammar mirrors the paper's PostgreSQL extension (§5.3):

    {v
    SELECT [ONLINE] agg(expr) [, agg(expr) ...]
    FROM table [alias] [, table [alias] ...]
    [WHERE cond [AND cond ...]]
    [GROUP BY column]
    [WITHINTIME seconds] [CONFIDENCE percent] [REPORTINTERVAL seconds]
    v} *)

type column_ref = { table : string option; column : string }

type literal =
  | L_int of int
  | L_float of float
  | L_string of string
  | L_date of int  (** day offset, parsed from DATE 'yyyy-mm-dd' *)

type expr =
  | E_col of column_ref
  | E_lit of literal
  | E_neg of expr
  | E_add of expr * expr
  | E_sub of expr * expr
  | E_mul of expr * expr
  | E_div of expr * expr

type agg_kind = A_sum | A_count | A_avg | A_variance | A_stdev

type select_item = { agg : agg_kind; arg : expr option }
(** [arg = None] only for [COUNT] of star. *)

type comparison = Op_eq | Op_ne | Op_lt | Op_le | Op_gt | Op_ge

type condition =
  | C_join of column_ref * column_ref  (** col = col *)
  | C_cmp of column_ref * comparison * literal
  | C_between of column_ref * literal * literal
  | C_band of column_ref * column_ref * int * int
      (** [C_band (a, b, lo, hi)]: a BETWEEN b + lo AND b + hi — a band
          (theta) join *)
  | C_in of column_ref * literal list

type statement = {
  online : bool;
  items : select_item list;
  from : (string * string option) list;  (** (table, alias) *)
  where : condition list;
  group_by : column_ref option;
  within_time : float option;
  confidence : float option;  (** e.g. 95.0 *)
  report_interval : float option;
}

val agg_name : agg_kind -> string
val pp_expr : Format.formatter -> expr -> unit
val pp_statement : Format.formatter -> statement -> unit
