(* Tests for the paper's Section-7 extensions and the I/O-format modules:
   stratified group-by, cardinality estimation, run-to-completion, CSV
   import/export, the dbgen .tbl loader, and SQL band joins. *)

module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Stratified = Wj_core.Stratified
module Cardinality = Wj_core.Cardinality
module Exact = Wj_exec.Exact
module Complete = Wj_exec.Complete
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Csv = Wj_storage.Csv
module Prng = Wj_util.Prng
module Estimator = Wj_stats.Estimator

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

(* A 2-table join with a heavily skewed group column on the first table:
   group 0 has 1900 rows, groups 1..9 have ~10 rows each. *)
let skewed_query () =
  let prng = Prng.create 3 in
  let rows =
    List.init 2000 (fun i ->
        let group = if i < 1900 then 0 else 1 + ((i - 1900) / 10) in
        [ group; Prng.int prng 50 ])
  in
  let ta = int_table "ta" [ "grp"; "k" ] rows in
  let tb =
    int_table "tb" [ "k"; "v" ]
      (List.init 4000 (fun _ -> [ Prng.int prng 50; Prng.int prng 100 ]))
  in
  Query.make
    ~tables:[ ("ta", ta); ("tb", tb) ]
    ~joins:[ { left = (0, 1); right = (1, 0); op = Eq } ]
    ~group_by:(Some (0, 0))
    ~agg:Estimator.Sum ~expr:(Col (1, 1)) ()

(* ---- Stratified ------------------------------------------------------- *)

let test_stratified_matches_exact () =
  let q = skewed_query () in
  let reg = Registry.build_for_query q in
  (* The group column needs an ordered index for stratification. *)
  Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_ordered q.Query.tables.(0) ~column:0);
  let exact = Exact.group_aggregate q reg in
  let out = Stratified.run ~seed:4 ~max_walks:60_000 ~max_time:30.0 q reg in
  Alcotest.(check int) "all groups present" (List.length exact) (List.length out.strata);
  List.iter
    (fun (s : Stratified.group_state) ->
      match List.assoc_opt s.key exact with
      | Some e ->
        Alcotest.(check bool)
          (Printf.sprintf "group %s: %.1f ~ %.1f" (Value.to_display s.key)
             s.report.estimate e.Exact.value)
          true
          (Float.abs (s.report.estimate -. e.Exact.value)
          < (4.0 *. s.report.half_width) +. (0.05 *. Float.abs e.Exact.value) +. 1.0)
      | None -> Alcotest.fail "unexpected group")
    out.strata

let test_stratified_boosts_small_groups () =
  (* With Equal/Adaptive allocation, a rare group's relative CI must come
     out far tighter than under plain (unstratified) group-by given the
     same number of walks. *)
  let q = skewed_query () in
  let reg = Registry.build_for_query q in
  Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_ordered q.Query.tables.(0) ~column:0);
  let walks = 30_000 in
  let strat = Stratified.run ~seed:9 ~allocation:Stratified.Equal ~max_walks:walks ~max_time:30.0 q reg in
  let plain =
    Online.run_group_by_session
      (Run_config.make ~seed:9 ~max_walks:walks ~max_time:30.0 ())
      q reg
  in
  let rel (r : Online.report) = r.half_width /. Float.abs r.estimate in
  (* Group 5 is one of the rare ones. *)
  let key = Value.Int 5 in
  let s = List.find (fun (g : Stratified.group_state) -> Value.equal g.key key) strat.strata in
  match List.assoc_opt key plain.groups with
  | None -> () (* plain sampling never even hit the group: stratified wins by default *)
  | Some p ->
    Alcotest.(check bool)
      (Printf.sprintf "stratified %.3f < plain %.3f" (rel s.report) (rel p))
      true
      (rel s.report < rel p)

let test_stratified_allocations () =
  let q = skewed_query () in
  let reg = Registry.build_for_query q in
  Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_ordered q.Query.tables.(0) ~column:0);
  List.iter
    (fun allocation ->
      let out = Stratified.run ~seed:2 ~allocation ~max_walks:5_000 ~max_time:30.0 q reg in
      Alcotest.(check int) "walk budget respected" 5_000 out.total_walks)
    [ Stratified.Equal; Stratified.Proportional; Stratified.Adaptive ];
  (* Proportional allocation sends most walks to the giant group. *)
  let out =
    Stratified.run ~seed:2 ~allocation:Stratified.Proportional ~max_walks:10_000
      ~max_time:30.0 q reg
  in
  let big = List.find (fun (g : Stratified.group_state) -> Value.equal g.key (Value.Int 0)) out.strata in
  Alcotest.(check bool) "big group dominates" true (big.report.walks > 8_000)

let test_stratified_validation () =
  let q = skewed_query () in
  let reg = Registry.build_for_query q in
  (* No ordered index on the group column -> refused. *)
  Alcotest.check_raises "needs ordered index"
    (Invalid_argument "Stratified.run: GROUP BY column needs an ordered index")
    (fun () -> ignore (Stratified.run ~max_time:0.01 q reg));
  let q2 = { q with Query.group_by = None } in
  Alcotest.check_raises "needs group by"
    (Invalid_argument "Stratified.run: query has no GROUP BY") (fun () ->
      ignore (Stratified.run ~max_time:0.01 q2 reg))

(* ---- Cardinality ------------------------------------------------------ *)

let chain_query_3 seed =
  let prng = Prng.create seed in
  let mk name n dom =
    int_table name [ "a"; "b" ]
      (List.init n (fun _ -> [ Prng.int prng dom; Prng.int prng dom ]))
  in
  let r1 = mk "r1" 500 30 and r2 = mk "r2" 800 30 and r3 = mk "r3" 300 30 in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()

let test_cardinality_subquery () =
  let q = chain_query_3 1 in
  let sub = Cardinality.subquery q ~members:[ 0; 1 ] in
  Alcotest.(check int) "two tables" 2 (Query.k sub);
  Alcotest.(check int) "one join" 1 (List.length sub.Query.joins);
  Alcotest.(check bool) "count agg" true (sub.Query.agg = Estimator.Count);
  (* Disconnected subset refused (r1 and r3 are not adjacent). *)
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Query.make: join graph is not connected") (fun () ->
      ignore (Cardinality.subquery q ~members:[ 0; 2 ]))

let test_cardinality_estimate () =
  let q = chain_query_3 5 in
  let reg = Registry.build_for_query q in
  let sub = Cardinality.subquery q ~members:[ 0; 1 ] in
  let sub_reg = Registry.build_for_query sub in
  let exact = float_of_int (Exact.aggregate sub sub_reg).join_size in
  let est = Cardinality.estimate_size ~max_walks:30_000 ~max_time:5.0 q reg ~members:[ 0; 1 ] in
  Alcotest.(check bool)
    (Printf.sprintf "size %.0f ~ %.0f" est.size exact)
    true
    (Float.abs (est.size -. exact) < (4.0 *. est.half_width) +. (0.05 *. exact) +. 1.0);
  (* Single table: exact qualifying count, zero width. *)
  let single = Cardinality.estimate_size q reg ~members:[ 2 ] in
  Alcotest.(check (float 0.0)) "single table exact" 300.0 single.size;
  Alcotest.(check (float 0.0)) "no uncertainty" 0.0 single.half_width

let test_cardinality_suggest_order () =
  let q = chain_query_3 7 in
  let reg = Registry.build_for_query q in
  let order, estimates = Cardinality.suggest_order ~budget_walks:20_000 q reg in
  Alcotest.(check int) "full order" 3 (Array.length order);
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted;
  Alcotest.(check int) "one estimate per growth step" 2 (List.length estimates);
  (* The order must be walkable by the exact executor. *)
  match Wj_core.Walk_plan.of_order q reg order with
  | Some plan ->
    let r = Exact.aggregate ~plan q reg in
    let r0 = Exact.aggregate q reg in
    Alcotest.(check (float 1e-6)) "same result" r0.value r.value
  | None -> Alcotest.fail "suggested order not walkable"

(* ---- Complete (run to completion) ------------------------------------- *)

let test_complete_returns_exact () =
  let q = chain_query_3 17 in
  let reg = Registry.build_for_query q in
  let expected = Exact.aggregate q reg in
  let r = Complete.run ~seed:3 q reg in
  Alcotest.(check (float 1e-9)) "exact answer" expected.value r.exact.value;
  Alcotest.(check bool) "online was cancelled or reached target" true
    (r.online.stopped_because = Online.Cancelled
    || r.online.stopped_because = Online.Target_reached);
  (* The online estimate is a real estimate of the same value. *)
  Alcotest.(check bool) "online estimate sane" true
    (Float.abs (r.online.final.estimate -. expected.value)
    < (6.0 *. r.online.final.half_width) +. (0.1 *. Float.abs expected.value))

(* ---- Csv --------------------------------------------------------------- *)

let test_csv_split_basics () =
  Alcotest.(check (list string)) "plain" [ "a"; "b"; "c" ] (Csv.split_line "a,b,c");
  Alcotest.(check (list string)) "empty fields" [ ""; ""; "" ] (Csv.split_line ",,");
  Alcotest.(check (list string)) "quoted" [ "a,b"; "c" ] (Csv.split_line {|"a,b",c|});
  Alcotest.(check (list string)) "escaped quote" [ {|say "hi"|} ]
    (Csv.split_line {|"say ""hi"""|});
  Alcotest.(check (list string)) "pipe separator" [ "x"; "y"; "" ]
    (Csv.split_line ~separator:'|' "x|y|")

let test_csv_split_errors () =
  try
    ignore (Csv.split_line {|"unterminated|});
    Alcotest.fail "expected Csv_error"
  with Csv.Csv_error (msg, _) ->
    Alcotest.(check string) "message" "unterminated quoted field" msg

let csv_roundtrip =
  QCheck.Test.make ~name:"split_line (render_line fields) = fields" ~count:500
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (string_gen_of_size (Gen.int_range 0 8) Gen.printable))
    (fun fields ->
      let fields = List.map (String.map (fun c -> if c = '\n' || c = '\r' then '_' else c)) fields in
      Csv.split_line (Csv.render_line fields) = fields)

let test_csv_table_roundtrip () =
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt }; { name = "price"; ty = TFloat };
        { name = "label"; ty = TStr } ]
  in
  let t = Table.create ~name:"t" ~schema () in
  ignore (Table.insert t [| Int 1; Float 2.5; Str "plain" |]);
  ignore (Table.insert t [| Int (-7); Float 1e6; Str "with,comma" |]);
  ignore (Table.insert t [| Null; Null; Str {|quote"inside|} |]);
  let path = Filename.temp_file "wj_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save_rows ~table:t path;
      let t2 = Table.create ~name:"t2" ~schema () in
      let n = Csv.load_rows ~schema ~table:t2 path in
      Alcotest.(check int) "rows loaded" 3 n;
      Table.iteri
        (fun i row ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d equal" i)
            true
            (Array.for_all2
               (fun a b ->
                 match (a, b) with
                 | Value.Str "" , Value.Null | Value.Null, Value.Str "" -> true
                 | _ -> Value.equal a b)
               row (Table.row t2 i)))
        t)

let test_csv_load_errors () =
  let schema = Schema.make [ { Schema.name = "id"; ty = Value.TInt } ] in
  let path = Filename.temp_file "wj_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "12\nnot_a_number\n";
      close_out oc;
      let t = Table.create ~name:"t" ~schema () in
      try
        ignore (Csv.load_rows ~schema ~table:t path);
        Alcotest.fail "expected Csv_error"
      with Csv.Csv_error (_, line) -> Alcotest.(check int) "error line" 2 line)

(* ---- Tbl_loader -------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_tbl_loader () =
  let dir = Filename.temp_file "wj_tbl" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      write_file (Filename.concat dir "region.tbl") "0|AFRICA|comment|\n1|AMERICA|c|\n";
      write_file (Filename.concat dir "nation.tbl") "6|FRANCE|3|c|\n7|GERMANY|3|c|\n";
      write_file (Filename.concat dir "supplier.tbl")
        "1|Supplier#1|addr|6|phone|1234.56|c|\n";
      write_file (Filename.concat dir "customer.tbl")
        "1|Customer#1|addr|7|phone|99.95|BUILDING|c|\n2|Customer#2|addr|6|phone|-5.5|MACHINERY|c|\n";
      write_file (Filename.concat dir "orders.tbl")
        "1|1|O|1000.5|1995-03-14|1-URGENT|clerk|0|c|\n2|2|F|2000.25|1993-10-02|5-LOW|clerk|0|c|\n";
      write_file (Filename.concat dir "lineitem.tbl")
        "1|55|1|1|17|17954.55|0.04|0.02|N|O|1995-03-20|1995-02-19|1995-03-25|DELIVER IN PERSON|TRUCK|c|\n\
         2|44|1|1|36|73638.36|0.09|0.06|R|F|1993-11-09|1993-12-20|1993-11-24|TAKE BACK RETURN|RAIL|c|\n";
      let d = Wj_tpch.Tbl_loader.load_dir dir in
      Alcotest.(check int) "regions" 2 (Table.length d.region);
      Alcotest.(check int) "customers" 2 (Table.length d.customer);
      Alcotest.(check int) "lineitems" 2 (Table.length d.lineitem);
      (* Derived columns. *)
      let seg_id = Table.column_index d.customer "c_mktsegment_id" in
      Alcotest.(check int) "segment id" (Wj_tpch.Generator.segment_id "BUILDING")
        (Table.int_cell d.customer 0 seg_id);
      let od = Table.column_index d.orders "o_orderdate" in
      Alcotest.(check int) "date decoded" (Wj_tpch.Dates.of_ymd 1995 3 14)
        (Table.int_cell d.orders 0 od);
      let prio = Table.column_index d.orders "o_orderpriority" in
      Alcotest.(check int) "priority prefix" 1 (Table.int_cell d.orders 0 prio);
      let rf = Table.column_index d.lineitem "l_returnflag_id" in
      Alcotest.(check int) "returnflag id" 2 (Table.int_cell d.lineitem 1 rf);
      (* The loaded data answers queries end to end. *)
      let q = Wj_tpch.Queries.build ~variant:Barebone Wj_tpch.Queries.Q3 d in
      let reg = Wj_tpch.Queries.registry q in
      Alcotest.(check int) "joinable" 2 (Exact.aggregate q reg).join_size)

let test_tbl_loader_bad_record () =
  let dir = Filename.temp_file "wj_tbl" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      write_file (Filename.concat dir "region.tbl") "0|AFRICA|\n";
      try
        ignore (Wj_tpch.Tbl_loader.load_table (Filename.concat dir "region.tbl") `Region);
        Alcotest.fail "expected Csv_error"
      with Csv.Csv_error (_, 1) -> ())

(* ---- SQL band joins ---------------------------------------------------- *)

let test_sql_band_join_parse () =
  let s =
    Wj_sql.Parser.parse "SELECT COUNT(*) FROM a, b WHERE a.x BETWEEN b.y - 3 AND b.y + 5"
  in
  match s.Wj_sql.Ast.where with
  | [ Wj_sql.Ast.C_band (l, r, -3, 5) ] ->
    Alcotest.(check string) "lhs" "x" l.column;
    Alcotest.(check string) "rhs" "y" r.column
  | _ -> Alcotest.fail "expected a band condition"

let test_sql_band_join_errors () =
  let expect sql =
    try
      ignore (Wj_sql.Parser.parse sql);
      Alcotest.fail "expected Parse_error"
    with Wj_sql.Parser.Parse_error _ -> ()
  in
  expect "SELECT COUNT(*) FROM a, b WHERE a.x BETWEEN b.y - 3 AND b.z + 5";
  expect "SELECT COUNT(*) FROM a, b WHERE a.x BETWEEN b.y + 5 AND b.y - 3";
  expect "SELECT COUNT(*) FROM a, b WHERE a.x BETWEEN b.y AND 7"

let test_sql_band_join_end_to_end () =
  let ta = int_table "events" [ "ts"; "v" ] (List.init 200 (fun i -> [ i * 3; i ])) in
  let tb = int_table "probes" [ "ts2"; "w" ] (List.init 200 (fun i -> [ i * 3 + 1; i ])) in
  let catalog = Wj_storage.Catalog.create () in
  Wj_storage.Catalog.add_table catalog ta;
  Wj_storage.Catalog.add_table catalog tb;
  let r =
    Wj_sql.Engine.execute catalog
      "SELECT COUNT(*) FROM events, probes WHERE ts2 BETWEEN ts - 1 AND ts + 1"
  in
  (* probes.ts2 = 3i+1 matches events.ts = 3i exactly once (offset +1). *)
  match r.Wj_sql.Engine.items with
  | [ (_, Wj_sql.Engine.Exact_scalar e) ] ->
    Alcotest.(check (float 0.0)) "band matches" 200.0 e.Exact.value
  | _ -> Alcotest.fail "expected exact scalar"

let test_sql_band_join_online () =
  let prng = Prng.create 8 in
  let ta =
    int_table "ta" [ "ts"; "v" ] (List.init 2000 (fun _ -> [ Prng.int prng 5000; 1 ]))
  in
  let tb =
    int_table "tb" [ "ts2"; "w" ] (List.init 2000 (fun _ -> [ Prng.int prng 5000; 1 ]))
  in
  let catalog = Wj_storage.Catalog.create () in
  Wj_storage.Catalog.add_table catalog ta;
  Wj_storage.Catalog.add_table catalog tb;
  let exact =
    match
      (Wj_sql.Engine.execute catalog
         "SELECT COUNT(*) FROM ta, tb WHERE ts2 BETWEEN ts - 10 AND ts + 10")
        .items
    with
    | [ (_, Wj_sql.Engine.Exact_scalar e) ] -> e.Exact.value
    | _ -> Alcotest.fail "expected exact"
  in
  match
    (Wj_sql.Engine.execute ~seed:4 catalog
       "SELECT ONLINE COUNT(*) FROM ta, tb WHERE ts2 BETWEEN ts - 10 AND ts + 10 WITHINTIME 0.5")
      .items
  with
  | [ (_, Wj_sql.Engine.Online_scalar o) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "online band %.1f ~ %.1f" o.Online.final.estimate exact)
      true
      (Float.abs (o.Online.final.estimate -. exact)
      < (4.0 *. o.Online.final.half_width) +. (0.05 *. exact) +. 1.0)
  | _ -> Alcotest.fail "expected online scalar"

(* ---- robustness extras ------------------------------------------------ *)

(* The walker must sample each full path with exactly the probability the
   Horvitz-Thompson weight claims: empirical frequency * inv_p ~ 1. *)
let test_walker_path_distribution () =
  let r1 = int_table "r1" [ "a"; "b" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ] ] in
  let r2 = int_table "r2" [ "b"; "c" ] [ [ 10; 5 ]; [ 10; 6 ]; [ 20; 5 ] ] in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2) ]
      ~joins:[ { left = (0, 1); right = (1, 0); op = Eq } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Wj_core.Walk_plan.of_order q reg [| 0; 1 |]) in
  let prepared = Wj_core.Walker.prepare q reg plan in
  let prng = Prng.create 9 in
  let counts = Hashtbl.create 8 in
  let weights = Hashtbl.create 8 in
  let n = 60_000 in
  for _ = 1 to n do
    match Wj_core.Walker.walk prepared prng with
    | Wj_core.Walker.Success { path; inv_p } ->
      let key = (path.(0), path.(1)) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key));
      Hashtbl.replace weights key inv_p
    | Wj_core.Walker.Failure _ -> ()
  done;
  Alcotest.(check int) "all 5 join paths seen" 5 (Hashtbl.length counts);
  Hashtbl.iter
    (fun key c ->
      let inv_p = Hashtbl.find weights key in
      (* frequency ~ p = 1/inv_p, so frequency * inv_p ~ 1. *)
      let ratio = float_of_int c /. float_of_int n *. inv_p in
      Alcotest.(check bool)
        (Printf.sprintf "path (%d,%d): freq*inv_p = %.3f" (fst key) (snd key) ratio)
        true
        (ratio > 0.9 && ratio < 1.1))
    counts

(* Identical operation sequences must agree across branching factors. *)
let btree_degree_equivalence =
  QCheck.Test.make ~name:"btree results independent of min_degree" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_range 0 40) (int_range 0 100)))
    (fun pairs ->
      let t2 = Wj_index.Btree.create ~min_degree:2 () in
      let t16 = Wj_index.Btree.create ~min_degree:16 () in
      List.iter
        (fun (k, v) ->
          Wj_index.Btree.insert t2 ~key:k ~value:v;
          Wj_index.Btree.insert t16 ~key:k ~value:v)
        pairs;
      List.for_all
        (fun (k, _) ->
          Wj_index.Btree.count_eq t2 k = Wj_index.Btree.count_eq t16 k
          && Wj_index.Btree.rank_lt t2 k = Wj_index.Btree.rank_lt t16 k)
        pairs
      && Wj_index.Btree.length t2 = Wj_index.Btree.length t16)

(* The SQL front end must fail only through its three declared exceptions,
   never with Match_failure / Invalid_argument / out-of-bounds. *)
let sql_fuzz =
  QCheck.Test.make ~name:"sql pipeline only raises declared errors" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun input ->
      let catalog = Wj_storage.Catalog.create () in
      Wj_storage.Catalog.add_table catalog (int_table "t" [ "a"; "b" ] [ [ 1; 2 ] ]);
      match Wj_sql.Engine.execute catalog input with
      | _ -> true
      | exception Wj_sql.Lexer.Lex_error _ -> true
      | exception Wj_sql.Parser.Parse_error _ -> true
      | exception Wj_sql.Binder.Bind_error _ -> true)

(* Same, seeded with plausible SQL-ish fragments rather than raw noise. *)
let sql_fuzz_structured =
  let fragment =
    QCheck.Gen.oneofl
      [ "SELECT"; "ONLINE"; "SUM"; "COUNT"; "("; ")"; "*"; ","; "FROM"; "t"; "a"; "b";
        "WHERE"; "AND"; "="; "<"; "BETWEEN"; "IN"; "GROUP"; "BY"; "1"; "2.5"; "'x'";
        "WITHINTIME"; "CONFIDENCE"; "+"; "-"; "." ]
  in
  QCheck.Test.make ~name:"sql pipeline robust on keyword soup" ~count:500
    (QCheck.make QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 15) fragment)))
    (fun input ->
      let catalog = Wj_storage.Catalog.create () in
      Wj_storage.Catalog.add_table catalog (int_table "t" [ "a"; "b" ] [ [ 1; 2 ] ]);
      match Wj_sql.Engine.execute ~default_time:0.01 catalog input with
      | _ -> true
      | exception Wj_sql.Lexer.Lex_error _ -> true
      | exception Wj_sql.Parser.Parse_error _ -> true
      | exception Wj_sql.Binder.Bind_error _ -> true)

(* Hybrid with a SUM aggregate (the other tests use COUNT). *)
let test_hybrid_sum () =
  let prng = Prng.create 41 in
  let pairs n = List.init n (fun _ -> [ Prng.int prng 12; Prng.int prng 12 ]) in
  let a = int_table "a" [ "k"; "x" ] (pairs 300) in
  let b = int_table "b" [ "x"; "m" ] (pairs 300) in
  let c = int_table "c" [ "m"; "v" ] (pairs 300) in
  let q =
    Query.make
      ~tables:[ ("a", a); ("b", b); ("c", c) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
        ]
      ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()
  in
  let partial = Registry.create () in
  Registry.add partial ~pos:1 ~column:0 (Wj_index.Index.build_hash b ~column:0);
  (* c unindexed on m: edge b~c unwalkable either way -> decomposition,
     because c can still be its own component (any single vertex is). *)
  let full = Registry.build_for_query q in
  let exact = (Exact.aggregate q full).value in
  let out =
    Wj_core.Hybrid.run_session (Run_config.make ~seed:6 ~max_time:3.0 ()) q partial
  in
  Alcotest.(check bool) "decomposed" true (List.length out.components >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "hybrid sum %.0f ~ %.0f (hw %.0f)" out.estimate exact out.half_width)
    true
    (Float.abs (out.estimate -. exact) < (4.0 *. out.half_width) +. (0.05 *. exact))

let () =
  Alcotest.run "wj_extensions"
    [
      ( "stratified",
        [
          Alcotest.test_case "matches exact" `Slow test_stratified_matches_exact;
          Alcotest.test_case "boosts small groups" `Slow test_stratified_boosts_small_groups;
          Alcotest.test_case "allocations" `Quick test_stratified_allocations;
          Alcotest.test_case "validation" `Quick test_stratified_validation;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "subquery" `Quick test_cardinality_subquery;
          Alcotest.test_case "estimate" `Slow test_cardinality_estimate;
          Alcotest.test_case "suggest_order" `Slow test_cardinality_suggest_order;
        ] );
      ( "complete",
        [ Alcotest.test_case "returns exact" `Slow test_complete_returns_exact ] );
      ( "csv",
        [
          Alcotest.test_case "split basics" `Quick test_csv_split_basics;
          Alcotest.test_case "split errors" `Quick test_csv_split_errors;
          QCheck_alcotest.to_alcotest csv_roundtrip;
          Alcotest.test_case "table roundtrip" `Quick test_csv_table_roundtrip;
          Alcotest.test_case "load errors" `Quick test_csv_load_errors;
        ] );
      ( "tbl_loader",
        [
          Alcotest.test_case "loads dbgen files" `Quick test_tbl_loader;
          Alcotest.test_case "bad record" `Quick test_tbl_loader_bad_record;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "walker path distribution" `Slow test_walker_path_distribution;
          QCheck_alcotest.to_alcotest btree_degree_equivalence;
          QCheck_alcotest.to_alcotest sql_fuzz;
          QCheck_alcotest.to_alcotest sql_fuzz_structured;
          Alcotest.test_case "hybrid SUM" `Slow test_hybrid_sum;
        ] );
      ( "sql_band",
        [
          Alcotest.test_case "parse" `Quick test_sql_band_join_parse;
          Alcotest.test_case "errors" `Quick test_sql_band_join_errors;
          Alcotest.test_case "end to end" `Quick test_sql_band_join_end_to_end;
          Alcotest.test_case "online" `Slow test_sql_band_join_online;
        ] );
    ]
