(** Splitting delimiter-separated records.

    Covers both ordinary CSV (quoted fields, escaped quotes) and the
    pipe-separated [.tbl] format produced by TPC-H's dbgen (a trailing
    delimiter and no quoting), which [Wj_tpch.Tbl_loader] reads through
    {!split_line}. *)

exception Csv_error of string * int  (** message, 1-based line number *)

val split_line : ?separator:char -> string -> string list
(** Split one record.  Fields may be double-quoted; [""] inside a quoted
    field is an escaped quote.  Raises {!Csv_error} (line 0) on an
    unterminated quote. *)
