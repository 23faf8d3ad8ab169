(* Tests for wj_tpch: generator distributions and query definitions. *)

module Generator = Wj_tpch.Generator
module Queries = Wj_tpch.Queries
module Dates = Wj_tpch.Dates
module Table = Wj_storage.Table
module Value = Wj_storage.Value
module Query = Wj_core.Query

let dataset = lazy (Generator.generate ~sf:0.01 ())

let test_cardinalities () =
  let d = Lazy.force dataset in
  Alcotest.(check int) "regions" 5 (Table.length d.region);
  Alcotest.(check int) "nations" 25 (Table.length d.nation);
  Alcotest.(check int) "suppliers" 100 (Table.length d.supplier);
  Alcotest.(check int) "customers" 1500 (Table.length d.customer);
  Alcotest.(check int) "orders" 15000 (Table.length d.orders);
  (* 1..7 lines per order, so on average 4. *)
  let l = Table.length d.lineitem in
  Alcotest.(check bool)
    (Printf.sprintf "lineitems %d near 60000" l)
    true
    (l > 55_000 && l < 65_000)

let test_determinism () =
  let a = Generator.generate ~sf:0.002 ~seed:3 () in
  let b = Generator.generate ~sf:0.002 ~seed:3 () in
  Alcotest.(check int) "same size" (Generator.total_rows a) (Generator.total_rows b);
  Table.iteri
    (fun i row ->
      Alcotest.(check bool) "same rows" true
        (Array.for_all2 Value.equal row (Table.row b.lineitem i)))
    a.lineitem;
  let c = Generator.generate ~sf:0.002 ~seed:4 () in
  let differs = ref false in
  Table.iteri
    (fun i row ->
      if i < Table.length c.lineitem && not (Array.for_all2 Value.equal row (Table.row c.lineitem i))
      then differs := true)
    a.lineitem;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_foreign_keys () =
  let d = Lazy.force dataset in
  let n_cust = Table.length d.customer and n_supp = Table.length d.supplier in
  let n_orders = Table.length d.orders in
  let ok = ref true in
  Table.iteri
    (fun _ row ->
      let ck = Value.to_int row.(Table.column_index d.orders "o_custkey") in
      if ck < 0 || ck >= n_cust then ok := false)
    d.orders;
  Alcotest.(check bool) "orders -> customer" true !ok;
  Table.iteri
    (fun _ row ->
      let ok_ = Value.to_int row.(Table.column_index d.lineitem "l_orderkey") in
      let sk = Value.to_int row.(Table.column_index d.lineitem "l_suppkey") in
      if ok_ < 0 || ok_ >= n_orders || sk < 0 || sk >= n_supp then ok := false)
    d.lineitem;
  Alcotest.(check bool) "lineitem -> orders/supplier" true !ok

let test_every_order_has_lineitems () =
  let d = Lazy.force dataset in
  let counts = Array.make (Table.length d.orders) 0 in
  Table.iteri
    (fun _ row ->
      let o = Value.to_int row.(Table.column_index d.lineitem "l_orderkey") in
      counts.(o) <- counts.(o) + 1)
    d.lineitem;
  Array.iter
    (fun c -> Alcotest.(check bool) "1..7 lines" true (c >= 1 && c <= 7))
    counts

let test_dictionary_columns_consistent () =
  let d = Lazy.force dataset in
  let str = function Value.Str s -> s | _ -> Alcotest.fail "not a string cell" in
  let seg = Table.column_index d.customer "c_mktsegment" in
  let seg_id = Table.column_index d.customer "c_mktsegment_id" in
  Table.iteri
    (fun _ row ->
      let s = str row.(seg) and i = Value.to_int row.(seg_id) in
      Alcotest.(check string) "segment dictionary" s Generator.market_segments.(i))
    d.customer;
  let rf = Table.column_index d.lineitem "l_returnflag" in
  let rf_id = Table.column_index d.lineitem "l_returnflag_id" in
  Table.iteri
    (fun _ row ->
      let s = str row.(rf) and i = Value.to_int row.(rf_id) in
      Alcotest.(check string) "returnflag dictionary" s Generator.return_flags.(i))
    d.lineitem

let test_date_ranges () =
  let d = Lazy.force dataset in
  let od = Table.column_index d.orders "o_orderdate" in
  Table.iteri
    (fun _ row ->
      let day = Value.to_int row.(od) in
      Alcotest.(check bool) "orderdate range" true (day >= 0 && day <= Dates.max_day - 151))
    d.orders;
  let sd = Table.column_index d.lineitem "l_shipdate" in
  Table.iteri
    (fun _ row ->
      let day = Value.to_int row.(sd) in
      Alcotest.(check bool) "shipdate range" true (day >= 1 && day <= Dates.max_day))
    d.lineitem

let test_segments_balanced () =
  let d = Lazy.force dataset in
  let seg_id = Table.column_index d.customer "c_mktsegment_id" in
  let counts = Array.make 5 0 in
  Table.iteri
    (fun _ row -> counts.(Value.to_int row.(seg_id)) <- counts.(Value.to_int row.(seg_id)) + 1)
    d.customer;
  let n = Table.length d.customer in
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "segment count %d near %d" c (n / 5))
        true
        (abs (c - (n / 5)) < n / 5))
    counts

let test_dictionaries () =
  Alcotest.(check int) "segment id" 1 (Generator.segment_id "BUILDING");
  Alcotest.(check int) "nation key" (Generator.nation_key "FRANCE") 6;
  Alcotest.check_raises "bad segment" Not_found (fun () ->
      ignore (Generator.segment_id "SPACESHIPS"))

let test_sf_validation () =
  Alcotest.check_raises "bad sf" (Invalid_argument "Generator.generate: sf must be positive")
    (fun () -> ignore (Generator.generate ~sf:0.0 ()))

let test_catalog () =
  let d = Lazy.force dataset in
  let c = Generator.catalog d in
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Wj_storage.Catalog.table c name <> None))
    [ "region"; "nation"; "supplier"; "customer"; "orders"; "lineitem" ]

(* ---- query definitions ----------------------------------------------- *)

let test_query_shapes () =
  let d = Lazy.force dataset in
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Standard spec d in
      Alcotest.(check int)
        (Queries.name_of spec ^ " table count")
        (Queries.tables_of spec) (Query.k q);
      Alcotest.(check int)
        (Queries.name_of spec ^ " chain join count")
        (Query.k q - 1)
        (List.length q.Query.joins))
    [ Queries.Q3; Queries.Q7; Queries.Q10 ]

let test_query_variants () =
  let d = Lazy.force dataset in
  let bare = Queries.build ~variant:Barebone Queries.Q3 d in
  Alcotest.(check int) "barebone no predicates" 0 (List.length bare.Query.predicates);
  let std = Queries.build ~variant:Standard Queries.Q3 d in
  Alcotest.(check int) "standard Q3 predicates" 3 (List.length std.Query.predicates);
  let one = Queries.build ~variant:(One_date 0.5) Queries.Q3 d in
  Alcotest.(check int) "one predicate" 1 (List.length one.Query.predicates);
  let extra =
    Queries.build
      ~variant:(Extra [ Query.Cmp { table = 0; column = 0; op = Cge; value = Value.Int 0 } ])
      Queries.Q3 d
  in
  Alcotest.(check int) "extra" 1 (List.length extra.Query.predicates)

let test_one_date_selectivity () =
  (* One_date f keeps about fraction f of the orders. *)
  let d = Lazy.force dataset in
  List.iter
    (fun f ->
      let q = Queries.build ~variant:(One_date f) Queries.Q3 d in
      let pred = List.hd q.Query.predicates in
      let kept = ref 0 in
      Table.iteri
        (fun row _ -> if Query.check_predicate q pred row then incr kept)
        d.orders;
      let frac = float_of_int !kept /. float_of_int (Table.length d.orders) in
      Alcotest.(check bool)
        (Printf.sprintf "fraction %.3f near %.2f" frac f)
        true
        (Float.abs (frac -. f) < 0.05))
    [ 0.2; 0.5; 0.8 ]

let test_group_by_option () =
  let d = Lazy.force dataset in
  let q = Queries.build ~group_by_segment:true Queries.Q10 d in
  Alcotest.(check bool) "group by set" true (q.Query.group_by <> None);
  Alcotest.check_raises "q7 unsupported"
    (Invalid_argument "Queries.build: GROUP BY segment unsupported for Q7") (fun () ->
      ignore (Queries.build ~group_by_segment:true Queries.Q7 d))

let test_q7_aliases_share_table () =
  let d = Lazy.force dataset in
  let q = Queries.build Queries.Q7 d in
  (* Positions 4 and 5 are both the nation table. *)
  Alcotest.(check bool) "same table" true (q.Query.tables.(4) == q.Query.tables.(5));
  Alcotest.(check string) "alias n1" "n1" q.Query.names.(4);
  Alcotest.(check string) "alias n2" "n2" q.Query.names.(5)

let test_queries_runnable () =
  (* Each standard query estimates within sanity bounds of its exact value
     on the tiny dataset. *)
  let d = Lazy.force dataset in
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Standard spec d in
      let reg = Queries.registry q in
      let exact = Wj_exec.Exact.aggregate q reg in
      let out =
        Wj_core.Online.run_session
          (Wj_core.Run_config.make ~seed:5 ~max_time:1.5 ())
          q reg
      in
      if exact.join_size > 50 then
        Alcotest.(check bool)
          (Printf.sprintf "%s est %.4g ~ exact %.4g" (Queries.name_of spec)
             out.final.estimate exact.value)
          true
          (Float.abs (out.final.estimate -. exact.value)
          < (4.0 *. out.final.half_width) +. (0.05 *. Float.abs exact.value)))
    [ Queries.Q3; Queries.Q10 ]

let () =
  Alcotest.run "wj_tpch"
    [
      ( "generator",
        [
          Alcotest.test_case "cardinalities" `Quick test_cardinalities;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "foreign keys" `Quick test_foreign_keys;
          Alcotest.test_case "orders have lineitems" `Quick test_every_order_has_lineitems;
          Alcotest.test_case "dictionary columns" `Quick test_dictionary_columns_consistent;
          Alcotest.test_case "date ranges" `Quick test_date_ranges;
          Alcotest.test_case "segments balanced" `Quick test_segments_balanced;
          Alcotest.test_case "dictionaries" `Quick test_dictionaries;
          Alcotest.test_case "sf validation" `Quick test_sf_validation;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
      ( "queries",
        [
          Alcotest.test_case "shapes" `Quick test_query_shapes;
          Alcotest.test_case "variants" `Quick test_query_variants;
          Alcotest.test_case "one-date selectivity" `Quick test_one_date_selectivity;
          Alcotest.test_case "group-by option" `Quick test_group_by_option;
          Alcotest.test_case "Q7 aliases" `Quick test_q7_aliases_share_table;
          Alcotest.test_case "runnable" `Slow test_queries_runnable;
        ] );
    ]
