(* Tests for wj_exec: the exact executor against brute-force evaluation. *)

module Exact = Wj_exec.Exact
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Walk_plan = Wj_core.Walk_plan
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Prng = Wj_util.Prng
module Estimator = Wj_stats.Estimator
module Generator = Wj_tpch.Generator
module Queries = Wj_tpch.Queries

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

(* Brute-force evaluation of an arbitrary query by enumerating the full
   cross product (only viable on tiny tables). *)
let brute_force q =
  let kq = Query.k q in
  let path = Array.make kq 0 in
  let results = ref [] in
  let rec go pos =
    if pos = kq then begin
      let all_joins = List.for_all (fun c -> Query.check_join q c path) q.Query.joins in
      let all_preds =
        List.init kq Fun.id |> List.for_all (fun p -> Query.row_passes q p path.(p))
      in
      if all_joins && all_preds then results := Array.copy path :: !results
    end
    else
      for row = 0 to Table.length q.Query.tables.(pos) - 1 do
        path.(pos) <- row;
        go (pos + 1)
      done
  in
  go 0;
  !results

let brute_sum q =
  List.fold_left (fun acc p -> acc +. Query.eval_expr q p) 0.0 (brute_force q)

let random_chain_query ?(predicates = []) ?(agg = Estimator.Sum) seed sizes dom =
  let prng = Prng.create seed in
  let tables =
    List.mapi
      (fun i n ->
        ( Printf.sprintf "t%d" i,
          int_table (Printf.sprintf "t%d" i) [ "x"; "y" ]
            (List.init n (fun _ -> [ Prng.int prng dom; Prng.int prng dom ])) ))
      sizes
  in
  let joins =
    List.init (List.length sizes - 1) (fun i ->
        { Query.left = (i, 1); right = (i + 1, 0); op = Query.Eq })
  in
  Query.make ~tables ~joins ~predicates ~agg ~expr:(Query.Col (List.length sizes - 1, 1)) ()

let test_exact_matches_brute_force () =
  List.iter
    (fun seed ->
      let q = random_chain_query seed [ 25; 30; 20 ] 6 in
      let reg = Registry.build_for_query q in
      let r = Exact.aggregate q reg in
      let expected = brute_sum q in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "sum (seed %d)" seed) expected r.value;
      Alcotest.(check int)
        (Printf.sprintf "join size (seed %d)" seed)
        (List.length (brute_force q))
        r.join_size)
    [ 1; 2; 3; 4; 5 ]

let test_exact_with_predicates () =
  let predicates =
    [
      Query.Cmp { table = 0; column = 0; op = Query.Cle; value = Value.Int 3 };
      Query.Cmp { table = 2; column = 1; op = Query.Cge; value = Value.Int 2 };
    ]
  in
  let q = random_chain_query ~predicates 7 [ 30; 30; 30 ] 6 in
  let reg = Registry.build_for_query q in
  let r = Exact.aggregate q reg in
  Alcotest.(check (float 1e-6)) "predicated sum" (brute_sum q) r.value

let test_exact_cyclic () =
  let prng = Prng.create 11 in
  let pairs n = List.init n (fun _ -> [ Prng.int prng 5; Prng.int prng 5 ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs 15) in
  let g = int_table "g" [ "b"; "c" ] (pairs 15) in
  let h = int_table "h" [ "c"; "a" ] (pairs 15) in
  let q =
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
          { left = (2, 1); right = (0, 0); op = Eq };
        ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  let r = Exact.aggregate q reg in
  Alcotest.(check int) "triangle count" (List.length (brute_force q)) r.join_size

let test_exact_band_join () =
  let ta = int_table "ta" [ "v" ] (List.init 20 (fun i -> [ i ])) in
  let tb = int_table "tb" [ "v" ] (List.init 20 (fun i -> [ i ])) in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Band { lo = 1; hi = 2 } } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  let r = Exact.aggregate q reg in
  Alcotest.(check int) "band pairs" (List.length (brute_force q)) r.join_size

let test_exact_all_aggregates () =
  let q0 = random_chain_query 13 [ 20; 20 ] 4 in
  let reg = Registry.build_for_query q0 in
  let paths = brute_force q0 in
  let values = List.map (Query.eval_expr q0) paths in
  let n = float_of_int (List.length values) in
  let sum = List.fold_left ( +. ) 0.0 values in
  let mean = sum /. n in
  let var = List.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 values /. n in
  let expect agg expected =
    let q = { q0 with Query.agg } in
    Alcotest.(check (float 1e-6)) (Estimator.agg_to_string agg) expected (Exact.aggregate q reg).value
  in
  expect Estimator.Sum sum;
  expect Estimator.Count n;
  expect Estimator.Avg mean;
  expect Estimator.Variance var;
  expect Estimator.Stdev (sqrt var)

let test_exact_group_aggregate () =
  let q = random_chain_query 17 [ 25; 25 ] 4 in
  let q = { q with Query.group_by = Some (0, 0) } in
  let reg = Registry.build_for_query q in
  let groups = Exact.group_aggregate q reg in
  (* Compare against brute force grouped by the same key. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun path ->
      let key = Query.group_key q path in
      let v = Query.eval_expr q path in
      Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
    (brute_force q);
  Alcotest.(check int) "group count" (Hashtbl.length tbl) (List.length groups);
  List.iter
    (fun (key, (r : Exact.result)) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "group %s" (Value.to_display key))
        (Hashtbl.find tbl key) r.value)
    groups;
  (* Sorted by key. *)
  let keys = List.map fst groups in
  Alcotest.(check bool) "sorted" true (List.sort Value.compare keys = keys)

let test_exact_group_requires_clause () =
  let q = random_chain_query 19 [ 5; 5 ] 3 in
  let reg = Registry.build_for_query q in
  Alcotest.check_raises "no group by"
    (Invalid_argument "Exact.group_aggregate: query has no GROUP BY") (fun () ->
      ignore (Exact.group_aggregate q reg))

let test_exact_join_size () =
  let q = random_chain_query 23 [ 30; 30 ] 5 in
  let reg = Registry.build_for_query q in
  Alcotest.(check int) "join_size" (List.length (brute_force q)) (Exact.join_size q reg)

let test_exact_plan_invariance () =
  (* Every walk plan computes the same exact result. *)
  let q = random_chain_query 29 [ 20; 25; 15 ] 5 in
  let reg = Registry.build_for_query q in
  let expected = brute_sum q in
  List.iter
    (fun plan ->
      let r = Exact.aggregate ~plan q reg in
      Alcotest.(check (float 1e-6)) (Walk_plan.describe q plan) expected r.value)
    (Walk_plan.enumerate q reg)

let test_exact_empty_result () =
  let ta = int_table "ta" [ "k" ] [ [ 1 ] ] in
  let tb = int_table "tb" [ "k" ] [ [ 2 ] ] in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Eq } ]
      ~agg:Estimator.Sum ~expr:(Query.Col (1, 0)) ()
  in
  let reg = Registry.build_for_query q in
  let r = Exact.aggregate q reg in
  Alcotest.(check int) "empty join" 0 r.join_size;
  Alcotest.(check (float 0.0)) "zero sum" 0.0 r.value

let test_exact_counts_work () =
  let q = random_chain_query 31 [ 40; 40 ] 5 in
  let reg = Registry.build_for_query q in
  let r = Exact.aggregate q reg in
  Alcotest.(check bool) "rows visited >= table scan" true
    (r.rows_visited >= Table.length q.Query.tables.(0))

(* Fixed-data pins on TPC-H Q3/Q7/Q10 at SF 0.005: value (hex), join size
   and rows visited under the FROM-order plan and under a second
   [of_order] plan.  The value is pinned per plan because the nested loop
   sums in the plan's slot order.  [rows_visited] is its cost accounting
   (wjd's estimate cache admits on it), so it is pinned with the answer. *)
type exact_pin = {
  p_spec : Queries.spec;
  p_join_size : int;
  p_from : string * int; (* FROM order: value, rows visited *)
  p_order : string list; (* the second plan's table order, by alias *)
  p_order_pin : string * int;
}

let exact_pins =
  [
    {
      p_spec = Queries.Q3;
      p_join_size = 188;
      p_from = ("0x1.7162f0772db79p+24", 5077);
      p_order = [ "lineitem"; "orders"; "customer" ];
      p_order_pin = ("0x1.7162f0772db79p+24", 47068);
    };
    {
      p_spec = Queries.Q7;
      p_join_size = 18;
      p_from = ("0x1.fa5b8324d4008p+20", 58140);
      p_order = [ "n2"; "customer"; "orders"; "lineitem"; "supplier"; "n1" ];
      p_order_pin = ("0x1.fa5b8324d4008p+20", 2111);
    };
    {
      p_spec = Queries.Q10;
      p_join_size = 608;
      p_from = ("0x1.259973cdcc02cp+26", 10050);
      p_order = [ "orders"; "lineitem"; "customer"; "nation" ];
      p_order_pin = ("0x1.259973cdcc02ep+26", 9908);
    };
  ]

let test_exact_tpch_pins () =
  let d = Generator.generate ~seed:7 ~sf:0.005 () in
  List.iter
    (fun p ->
      let name = Queries.name_of p.p_spec in
      let q = Queries.build ~variant:Standard p.p_spec d in
      let reg = Queries.registry q in
      let check label order (value, rows) =
        let plan =
          match Walk_plan.of_order q reg order with
          | Some plan -> plan
          | None -> Alcotest.failf "%s: %s not walkable" name label
        in
        let r = Exact.aggregate ~plan q reg in
        let label = name ^ " " ^ label in
        Alcotest.(check string) (label ^ " value") value (Printf.sprintf "%h" r.value);
        Alcotest.(check int) (label ^ " join size") p.p_join_size r.join_size;
        Alcotest.(check int) (label ^ " rows visited") rows r.rows_visited
      in
      check "FROM order" (Array.init (Query.k q) Fun.id) p.p_from;
      let position alias =
        let rec find i = if q.Query.names.(i) = alias then i else find (i + 1) in
        find 0
      in
      check "of_order" (Array.of_list (List.map position p.p_order)) p.p_order_pin)
    exact_pins

(* Per-group VARIANCE (count, sum and sum of squares all feed it), pinned
   bit for bit with each group's join size and the shared rows visited. *)
let test_exact_group_pinned () =
  let q = random_chain_query ~agg:Estimator.Variance 17 [ 25; 25 ] 4 in
  let q = { q with Query.group_by = Some (0, 0) } in
  let reg = Registry.build_for_query q in
  let got =
    List.map
      (fun (key, (r : Exact.result)) ->
        ((Value.to_display key, Printf.sprintf "%h" r.value), (r.join_size, r.rows_visited)))
      (Exact.group_aggregate q reg)
  in
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "groups"
    [
      (("0", "0x1.5f58d0fac687dp+0"), (56, 183));
      (("1", "0x1.39ce739ce739cp+0"), (31, 183));
      (("2", "0x1.68ffa619fc7d1p+0"), (27, 183));
      (("3", "0x1.6810ecf56be69p+0"), (44, 183));
    ]
    got

let () =
  Alcotest.run "wj_exec"
    [
      ( "exact",
        [
          Alcotest.test_case "matches brute force" `Quick test_exact_matches_brute_force;
          Alcotest.test_case "predicates" `Quick test_exact_with_predicates;
          Alcotest.test_case "cyclic" `Quick test_exact_cyclic;
          Alcotest.test_case "band join" `Quick test_exact_band_join;
          Alcotest.test_case "all aggregates" `Quick test_exact_all_aggregates;
          Alcotest.test_case "group aggregate" `Quick test_exact_group_aggregate;
          Alcotest.test_case "group requires clause" `Quick test_exact_group_requires_clause;
          Alcotest.test_case "join_size" `Quick test_exact_join_size;
          Alcotest.test_case "plan invariance" `Quick test_exact_plan_invariance;
          Alcotest.test_case "empty result" `Quick test_exact_empty_result;
          Alcotest.test_case "cost accounting" `Quick test_exact_counts_work;
          Alcotest.test_case "TPC-H value, join size, rows visited pinned" `Quick
            test_exact_tpch_pins;
          Alcotest.test_case "group results pinned" `Quick test_exact_group_pinned;
        ] );
    ]
