(** Deterministic TPC-H data generator.

    The paper's evaluation runs exclusively on TPC-H data (§5.1).  This
    generator reproduces the schema portions and distributions that the
    three benchmark queries (Q3, Q7, Q10) touch:

    - cardinalities scale linearly with the scale factor (SF 1.0 = 150 k
      customers, 1.5 M orders, ~6 M lineitems with 1-7 lines per order);
    - every join is a primary-key/foreign-key join with the fan-outs of the
      benchmark;
    - categorical columns (market segment, return flag, nation) carry both
      their string form and a dictionary-encoded integer twin (suffix
      [_id]) so selection predicates are Olken-sampleable.

    Everything derives from one integer seed; equal (sf, seed) pairs
    produce identical datasets. *)

type dataset = {
  region : Wj_storage.Table.t;
  nation : Wj_storage.Table.t;
  supplier : Wj_storage.Table.t;
  customer : Wj_storage.Table.t;
  orders : Wj_storage.Table.t;
  lineitem : Wj_storage.Table.t;
  sf : float;
}

val generate : ?seed:int -> sf:float -> unit -> dataset
(** Raises [Invalid_argument] when [sf <= 0]. *)

val catalog : dataset -> Wj_storage.Catalog.t
(** A catalog containing the six tables. *)

val market_segments : string array
(** The five TPC-H segments, index = dictionary id. *)

val segment_id : string -> int
(** Raises [Not_found] for unknown segments. *)

val return_flags : string array
(** [|"A"; "N"; "R"|], index = dictionary id. *)

val nation_key : string -> int
(** Raises [Not_found]. *)

val total_rows : dataset -> int

(** The table schemas, shared with {!Tbl_loader} so dbgen files load into
    identical shapes. *)

val region_schema : Wj_storage.Schema.t
val nation_schema : Wj_storage.Schema.t
val supplier_schema : Wj_storage.Schema.t
val customer_schema : Wj_storage.Schema.t
val orders_schema : Wj_storage.Schema.t
val lineitem_schema : Wj_storage.Schema.t
