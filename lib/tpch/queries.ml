module Query = Wj_core.Query
module Table = Wj_storage.Table
module Value = Wj_storage.Value

type spec = Q3 | Q7 | Q10

type variant =
  | Barebone
  | Standard
  | One_date of float
  | Scaled of float
  | Extra of Query.predicate list

let name_of = function Q3 -> "Q3" | Q7 -> "Q7" | Q10 -> "Q10"

let ci table name = Table.column_index table name

(* SUM(l_extendedprice * (1 - l_discount)) with lineitem at [pos]. *)
let revenue_expr lineitem pos =
  Query.Mul
    ( Query.Col (pos, ci lineitem "l_extendedprice"),
      Query.Sub (Query.Const 1.0, Query.Col (pos, ci lineitem "l_discount")) )

let eq (lp, lt, lc) (rp, rt, rc) =
  {
    Query.left = (lp, ci lt lc);
    right = (rp, ci rt rc);
    op = Query.Eq;
  }

(* A date cutoff keeping roughly fraction [f] of a uniform date column over
   [lo, hi]. *)
let cutoff_keeping lo hi f =
  let f = Float.max 0.0 (Float.min 1.0 f) in
  lo + int_of_float (Float.round (f *. float_of_int (hi - lo)))

let max_orderdate = Dates.max_day - 151
let max_shipdate = Dates.max_day - 30

let clamp_date d = max Dates.min_day (min Dates.max_day d)

(* --- Q3 --------------------------------------------------------------- *)

let q3_joins d =
  let c = d.Generator.customer and o = d.Generator.orders and l = d.Generator.lineitem in
  [ eq (0, c, "c_custkey") (1, o, "o_custkey"); eq (1, o, "o_orderkey") (2, l, "l_orderkey") ]

let q3_standard_preds d =
  let c = d.Generator.customer and o = d.Generator.orders and l = d.Generator.lineitem in
  let date = Dates.of_ymd 1995 3 15 in
  [
    Query.Cmp
      {
        table = 0;
        column = ci c "c_mktsegment_id";
        op = Query.Ceq;
        value = Value.Int (Generator.segment_id "BUILDING");
      };
    Query.Cmp
      { table = 1; column = ci o "o_orderdate"; op = Query.Clt; value = Value.Int date };
    Query.Cmp
      { table = 2; column = ci l "l_shipdate"; op = Query.Cgt; value = Value.Int date };
  ]

let q3_one_date d f =
  let o = d.Generator.orders in
  [
    Query.Cmp
      {
        table = 1;
        column = ci o "o_orderdate";
        op = Query.Cle;
        value = Value.Int (cutoff_keeping 0 max_orderdate f);
      };
  ]

(* Scaled Q3: same-direction date cutoffs, so the predicates remain
   jointly satisfiable at every f and the overall selectivity moves
   monotonically: the segment predicate is fixed, orders keep ~f of the
   date range, and lineitems must ship within f of the shipping window
   after the order cutoff. *)
let q3_scaled d f =
  let c = d.Generator.customer and o = d.Generator.orders and l = d.Generator.lineitem in
  let f = Float.max 0.01 (Float.min 1.0 f) in
  let o_cutoff = cutoff_keeping 0 max_orderdate f in
  let s_cutoff = clamp_date (o_cutoff + max 1 (int_of_float (121.0 *. f))) in
  [
    Query.Cmp
      {
        table = 0;
        column = ci c "c_mktsegment_id";
        op = Query.Ceq;
        value = Value.Int (Generator.segment_id "BUILDING");
      };
    Query.Cmp
      { table = 1; column = ci o "o_orderdate"; op = Query.Cle; value = Value.Int o_cutoff };
    Query.Cmp
      { table = 2; column = ci l "l_shipdate"; op = Query.Cle; value = Value.Int s_cutoff };
  ]

(* --- Q7 --------------------------------------------------------------- *)
(* Positions: 0 supplier, 1 lineitem, 2 orders, 3 customer, 4 nation (n1,
   supplier side), 5 nation (n2, customer side). *)

let q7_joins d =
  let s = d.Generator.supplier and l = d.Generator.lineitem and o = d.Generator.orders in
  let c = d.Generator.customer and n = d.Generator.nation in
  [
    eq (0, s, "s_suppkey") (1, l, "l_suppkey");
    eq (2, o, "o_orderkey") (1, l, "l_orderkey");
    eq (3, c, "c_custkey") (2, o, "o_custkey");
    eq (0, s, "s_nationkey") (4, n, "n_nationkey");
    eq (3, c, "c_nationkey") (5, n, "n_nationkey");
  ]

let q7_standard_preds d =
  let l = d.Generator.lineitem and n = d.Generator.nation in
  [
    Query.Cmp
      {
        table = 4;
        column = ci n "n_nationkey";
        op = Query.Ceq;
        value = Value.Int (Generator.nation_key "FRANCE");
      };
    Query.Cmp
      {
        table = 5;
        column = ci n "n_nationkey";
        op = Query.Ceq;
        value = Value.Int (Generator.nation_key "GERMANY");
      };
    Query.Between
      {
        table = 1;
        column = ci l "l_shipdate";
        lo = Value.Int (Dates.of_ymd 1995 1 1);
        hi = Value.Int (Dates.of_ymd 1996 12 31);
      };
  ]

let q7_one_date d f =
  let l = d.Generator.lineitem in
  [
    Query.Cmp
      {
        table = 1;
        column = ci l "l_shipdate";
        op = Query.Cle;
        value = Value.Int (cutoff_keeping 0 max_shipdate f);
      };
  ]

(* Scaled Q7: the nation equality pair is far too selective at bench scale
   (1/625 of pairs), so the knob widens both nation sets to ~f*25 nations
   and scales the shipdate window to fraction f of its span. *)
let q7_scaled d f =
  let l = d.Generator.lineitem and n = d.Generator.nation in
  let f = Float.max 0.01 (Float.min 1.0 f) in
  let nations = max 1 (int_of_float (Float.round (f *. 25.0))) in
  let ship_lo = Dates.of_ymd 1993 1 1 in
  let ship_hi = clamp_date (cutoff_keeping ship_lo Dates.max_day f) in
  [
    Query.Cmp
      { table = 4; column = ci n "n_nationkey"; op = Query.Clt; value = Value.Int nations };
    Query.Cmp
      { table = 5; column = ci n "n_nationkey"; op = Query.Clt; value = Value.Int nations };
    Query.Between
      {
        table = 1;
        column = ci l "l_shipdate";
        lo = Value.Int ship_lo;
        hi = Value.Int ship_hi;
      };
  ]

(* --- Q10 -------------------------------------------------------------- *)
(* Positions: 0 customer, 1 orders, 2 lineitem, 3 nation. *)

let q10_joins d =
  let c = d.Generator.customer and o = d.Generator.orders in
  let l = d.Generator.lineitem and n = d.Generator.nation in
  [
    eq (0, c, "c_custkey") (1, o, "o_custkey");
    eq (1, o, "o_orderkey") (2, l, "l_orderkey");
    eq (0, c, "c_nationkey") (3, n, "n_nationkey");
  ]

let q10_standard_preds d =
  let o = d.Generator.orders and l = d.Generator.lineitem in
  [
    Query.Between
      {
        table = 1;
        column = ci o "o_orderdate";
        lo = Value.Int (Dates.of_ymd 1993 10 1);
        hi = Value.Int (Dates.of_ymd 1993 12 31);
      };
    Query.Cmp
      { table = 2; column = ci l "l_returnflag_id"; op = Query.Ceq; value = Value.Int 2 };
  ]

let q10_one_date d f =
  let o = d.Generator.orders in
  [
    Query.Cmp
      {
        table = 1;
        column = ci o "o_orderdate";
        op = Query.Cle;
        value = Value.Int (cutoff_keeping 0 max_orderdate f);
      };
  ]

let q10_scaled d f =
  let o = d.Generator.orders and l = d.Generator.lineitem in
  let lo = Dates.of_ymd 1993 1 1 in
  let hi = clamp_date (cutoff_keeping lo max_orderdate f) in
  [
    Query.Between
      { table = 1; column = ci o "o_orderdate"; lo = Value.Int lo; hi = Value.Int hi };
    Query.Cmp
      { table = 2; column = ci l "l_returnflag_id"; op = Query.Ceq; value = Value.Int 2 };
  ]

(* --- assembly --------------------------------------------------------- *)

let build ?(variant = Barebone) ?(agg = Wj_stats.Estimator.Sum)
    ?(group_by_segment = false) spec d =
  let c = d.Generator.customer and l = d.Generator.lineitem in
  let tables, joins, lineitem_pos, customer_pos =
    match spec with
    | Q3 ->
      ( [ ("customer", c); ("orders", d.Generator.orders); ("lineitem", l) ],
        q3_joins d,
        2,
        Some 0 )
    | Q7 ->
      ( [
          ("supplier", d.Generator.supplier);
          ("lineitem", l);
          ("orders", d.Generator.orders);
          ("customer", c);
          ("n1", d.Generator.nation);
          ("n2", d.Generator.nation);
        ],
        q7_joins d,
        1,
        Some 3 )
    | Q10 ->
      ( [
          ("customer", c);
          ("orders", d.Generator.orders);
          ("lineitem", l);
          ("nation", d.Generator.nation);
        ],
        q10_joins d,
        2,
        Some 0 )
  in
  let predicates =
    match (variant, spec) with
    | Barebone, _ -> []
    | Extra ps, _ -> ps
    | Standard, Q3 -> q3_standard_preds d
    | Standard, Q7 -> q7_standard_preds d
    | Standard, Q10 -> q10_standard_preds d
    | One_date f, Q3 -> q3_one_date d f
    | One_date f, Q7 -> q7_one_date d f
    | One_date f, Q10 -> q10_one_date d f
    | Scaled f, Q3 -> q3_scaled d f
    | Scaled f, Q7 -> q7_scaled d f
    | Scaled f, Q10 -> q10_scaled d f
  in
  let group_by =
    if not group_by_segment then None
    else
      match (spec, customer_pos) with
      | Q7, _ -> invalid_arg "Queries.build: GROUP BY segment unsupported for Q7"
      | _, Some pos -> Some (pos, ci c "c_mktsegment")
      | _, None -> assert false
  in
  Query.make ~tables ~joins ~predicates ~group_by ~agg
    ~expr:(revenue_expr l lineitem_pos) ()

let registry q = Wj_core.Registry.build_for_query q
