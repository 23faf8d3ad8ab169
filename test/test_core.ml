(* Tests for wj_core: Query, Walk_plan, Walker, Optimizer, Online. *)

module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Walk_plan = Wj_core.Walk_plan
module Walker = Wj_core.Walker
module Optimizer = Wj_core.Optimizer
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Exact = Wj_exec.Exact
module Index = Wj_index.Index
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Prng = Wj_util.Prng
module Estimator = Wj_stats.Estimator

(* ---- small data builders --------------------------------------------- *)

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r)))) rows;
  t

(* A 3-table chain join mirroring the paper's Figure 2 flavour: values on
   the D attribute are aggregated. *)
let chain_dataset () =
  let r1 = int_table "r1" [ "a"; "b" ] [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ]; [ 4; 30 ]; [ 5; 30 ]; [ 6; 40 ]; [ 7; 50 ] ] in
  let r2 = int_table "r2" [ "b"; "c" ]
      [ [ 10; 100 ]; [ 10; 200 ]; [ 20; 200 ]; [ 30; 300 ]; [ 40; 300 ]; [ 40; 400 ]; [ 99; 999 ] ]
  in
  let r3 = int_table "r3" [ "c"; "d" ]
      [ [ 100; 7 ]; [ 200; 11 ]; [ 200; 13 ]; [ 300; 17 ]; [ 400; 19 ]; [ 500; 23 ] ]
  in
  (r1, r2, r3)

let chain_query ?(agg = Estimator.Sum) ?(predicates = []) () =
  let r1, r2, r3 = chain_dataset () in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~predicates ~agg ~expr:(Col (2, 1)) ()

(* Ground truth for the chain join by brute force. *)
let brute_chain f =
  let r1, r2, r3 = chain_dataset () in
  let acc = ref [] in
  Table.iteri
    (fun _ t1 ->
      Table.iteri
        (fun _ t2 ->
          Table.iteri
            (fun _ t3 ->
              if Value.to_int t1.(1) = Value.to_int t2.(0)
                 && Value.to_int t2.(1) = Value.to_int t3.(0)
              then acc := f t1 t2 t3 :: !acc)
            r3)
        r2)
    r1;
  !acc

let chain_true_sum () = List.fold_left ( +. ) 0.0 (brute_chain (fun _ _ t3 -> float_of_int (Value.to_int t3.(1))))
let chain_true_count () = List.length (brute_chain (fun _ _ _ -> ()))

(* ---- Query ----------------------------------------------------------- *)

let test_query_validation () =
  let r1, r2, _ = chain_dataset () in
  let tables = [ ("r1", r1); ("r2", r2) ] in
  let join = { Query.left = (0, 1); right = (1, 0); op = Query.Eq } in
  Alcotest.check_raises "bad column"
    (Invalid_argument "Query.make: join condition references column 9 of table 0")
    (fun () ->
      ignore
        (Query.make ~tables
           ~joins:[ { Query.left = (0, 9); right = (1, 0); op = Query.Eq } ]
           ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()));
  Alcotest.check_raises "self join cond"
    (Invalid_argument "Query.make: join condition within one table") (fun () ->
      ignore
        (Query.make ~tables
           ~joins:[ { Query.left = (0, 0); right = (0, 1); op = Query.Eq } ]
           ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Query.make: join graph is not connected") (fun () ->
      ignore
        (Query.make ~tables ~joins:[] ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()));
  Alcotest.check_raises "band lo>hi"
    (Invalid_argument "Query.make: band join with lo > hi") (fun () ->
      ignore
        (Query.make ~tables
           ~joins:[ { Query.left = (0, 1); right = (1, 0); op = Query.Band { lo = 3; hi = 1 } } ]
           ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()));
  ignore (Query.make ~tables ~joins:[ join ] ~agg:Estimator.Count ~expr:(Query.Const 1.0) ())

let test_query_expr_eval () =
  let q = chain_query () in
  (* Path (row 0 of each table): d of r3 row 0 is 7. *)
  Alcotest.(check (float 0.0)) "col" 7.0 (Query.eval_expr q [| 0; 0; 0 |]);
  let q2 = { q with expr = Query.Add (Query.Mul (Query.Col (2, 1), Query.Const 2.0), Query.Neg (Query.Const 1.0)) } in
  Alcotest.(check (float 0.0)) "arith" 13.0 (Query.eval_expr q2 [| 0; 0; 0 |]);
  let q3 = { q with expr = Query.Div (Query.Sub (Query.Col (2, 1), Query.Const 1.0), Query.Const 2.0) } in
  Alcotest.(check (float 0.0)) "div" 3.0 (Query.eval_expr q3 [| 0; 0; 0 |])

let test_query_predicates () =
  let q =
    chain_query
      ~predicates:
        [
          Query.Cmp { table = 0; column = 0; op = Query.Cge; value = Value.Int 3 };
          Query.Between { table = 0; column = 1; lo = Value.Int 20; hi = Value.Int 40 };
          Query.Member { table = 2; column = 1; values = [ Value.Int 11; Value.Int 17 ] };
        ]
      ()
  in
  (* r1 row 2 = (3, 20): passes both predicates on table 0. *)
  Alcotest.(check bool) "row passes" true (Query.row_passes q 0 2);
  (* r1 row 0 = (1, 10): fails a >= 3. *)
  Alcotest.(check bool) "row fails" false (Query.row_passes q 0 0);
  (* r1 row 6 = (7, 50): fails between. *)
  Alcotest.(check bool) "between fails" false (Query.row_passes q 0 6);
  (* r3 row 1 = (200, 11): passes member. *)
  Alcotest.(check bool) "member passes" true (Query.row_passes q 2 1);
  Alcotest.(check bool) "member fails" false (Query.row_passes q 2 0);
  Alcotest.(check int) "predicates_on" 2 (List.length (Query.predicates_on q 0));
  Alcotest.(check int) "predicates_on empty" 0 (List.length (Query.predicates_on q 1))

let test_query_cmp_ops () =
  let r1, _, _ = chain_dataset () in
  let q =
    Query.make ~tables:[ ("r1", r1) ] ~joins:[] ~agg:Estimator.Count
      ~expr:(Query.Const 1.0) ()
  in
  let check op v row expected =
    let p = Query.Cmp { table = 0; column = 0; op; value = Value.Int v } in
    Alcotest.(check bool)
      (Printf.sprintf "row %d" row)
      expected
      (Query.check_predicate q p row)
  in
  (* r1 row 3 has a = 4 *)
  check Query.Ceq 4 3 true;
  check Query.Ceq 5 3 false;
  check Query.Cne 5 3 true;
  check Query.Clt 5 3 true;
  check Query.Clt 4 3 false;
  check Query.Cle 4 3 true;
  check Query.Cgt 3 3 true;
  check Query.Cge 4 3 true;
  check Query.Cge 5 3 false

let test_query_check_join_and_ranges () =
  let q = chain_query () in
  let cond = List.hd q.joins in
  (* r1 row 0 has b=10; r2 row 0 has b=10. *)
  Alcotest.(check bool) "join holds" true (Query.check_join q cond [| 0; 0; -1 |]);
  Alcotest.(check bool) "join fails" false (Query.check_join q cond [| 0; 2; -1 |]);
  Alcotest.(check bool) "eq range" true (Query.join_key_range cond ~from_left:true 10 = (10, 10));
  let band = { Query.left = (0, 1); right = (1, 0); op = Query.Band { lo = -2; hi = 5 } } in
  Alcotest.(check bool) "band from left" true
    (Query.join_key_range band ~from_left:true 10 = (8, 15));
  Alcotest.(check bool) "band from right" true
    (Query.join_key_range band ~from_left:false 10 = (5, 12));
  let flipped = Query.flip band in
  Alcotest.(check bool) "flip sides" true (flipped.left = band.right && flipped.right = band.left);
  Alcotest.(check bool) "flip op" true (flipped.op = Query.Band { lo = -5; hi = 2 })

let flip_involution =
  QCheck.Test.make ~name:"flip is an involution" ~count:200
    QCheck.(pair (int_range (-10) 10) (int_range 0 10))
    (fun (lo, w) ->
      let c = { Query.left = (0, 1); right = (1, 0); op = Query.Band { lo; hi = lo + w } } in
      Query.flip (Query.flip c) = c)

let band_flip_equivalence =
  (* rv - lv in [lo,hi]  <=>  lv - rv in [-hi,-lo]: checking a band join
     must agree with checking its flipped version. *)
  QCheck.Test.make ~name:"check_join agrees with flipped condition" ~count:500
    QCheck.(triple (int_range (-5) 5) (int_range (-5) 5) (pair (int_range (-4) 4) (int_range 0 4)))
    (fun (x, y, (lo, w)) ->
      let ta = int_table "ta" [ "v" ] [ [ x ] ] in
      let tb = int_table "tb" [ "v" ] [ [ y ] ] in
      let cond = { Query.left = (0, 0); right = (1, 0); op = Query.Band { lo; hi = lo + w } } in
      let q =
        Query.make ~tables:[ ("ta", ta); ("tb", tb) ] ~joins:[ cond ]
          ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
      in
      let q_flipped =
        Query.make
          ~tables:[ ("ta", ta); ("tb", tb) ]
          ~joins:[ Query.flip cond ] ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
      in
      Query.check_join q cond [| 0; 0 |]
      = Query.check_join q_flipped (List.hd q_flipped.joins) [| 0; 0 |])

let test_query_group_key () =
  let q = chain_query () in
  Alcotest.check_raises "no group by" (Invalid_argument "Query.group_key: query has no GROUP BY")
    (fun () -> ignore (Query.group_key q [| 0; 0; 0 |]));
  let qg = { q with group_by = Some (0, 1) } in
  Alcotest.(check bool) "key" true (Value.equal (Value.Int 10) (Query.group_key qg [| 0; 0; 0 |]))

(* ---- The index-directed join graph (§4.1) --------------------------- *)

let orders plans = List.map (fun (p : Walk_plan.t) -> Array.to_list p.order) plans

(* Every step walks its condition from [parent] into [into], and into a
   side the registry indexes: [step.index] is that side's index. *)
let check_steps_enter_indexed_sides reg (p : Walk_plan.t) =
  Array.iter
    (fun (s : Walk_plan.step) ->
      let rpos, rcol = s.cond.right in
      Alcotest.(check int) "left side is the parent" s.parent (fst s.cond.left);
      Alcotest.(check int) "right side is entered" s.into rpos;
      match Registry.find reg ~pos:s.into ~column:rcol with
      | Some index -> Alcotest.(check bool) "the indexed side" true (index == s.index)
      | None -> Alcotest.fail "a step enters an unindexed side")
    p.steps

let test_join_graph_chain () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  (* Full registry: every table is a root and both directions of every
     edge are walkable, but a table is entered only from a neighbour. *)
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check (list (list int))) "orders"
    [ [ 0; 1; 2 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 1; 0 ] ]
    (orders plans);
  List.iter
    (fun (p : Walk_plan.t) ->
      Alcotest.(check int) "tree: no non-tree edge" 0 (List.length p.nontree);
      check_steps_enter_indexed_sides reg p)
    plans;
  Alcotest.(check bool) "0 -> 2 (not adjacent)" true
    (Walk_plan.of_order q reg [| 0; 2; 1 |] = None)

let test_join_graph_directed_by_indexes () =
  let q = chain_query () in
  (* Only r2.b and r3.c indexed: walks can only go left-to-right. *)
  let reg = Registry.create () in
  Registry.add reg ~pos:1 ~column:0 (Wj_index.Index.build_trie q.tables.(1) ~columns:[ 0 ]);
  Registry.add reg ~pos:2 ~column:0 (Wj_index.Index.build_trie q.tables.(2) ~columns:[ 0 ]);
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check (list (list int))) "only root 0" [ [ 0; 1; 2 ] ] (orders plans);
  List.iter (check_steps_enter_indexed_sides reg) plans;
  Alcotest.(check bool) "0 -> 1" true (Walk_plan.of_order q reg [| 0; 1; 2 |] <> None);
  Alcotest.(check bool) "1 -> 0 blocked" true (Walk_plan.of_order q reg [| 1; 0; 2 |] = None)

let test_join_graph_band_over_any_slot () =
  let ta = int_table "ta" [ "v" ] [ [ 1 ] ] in
  let tb = int_table "tb" [ "v" ] [ [ 2 ] ] in
  let cond = { Query.left = (0, 0); right = (1, 0); op = Query.Band { lo = 0; hi = 3 } } in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ] ~joins:[ cond ] ~agg:Estimator.Count
      ~expr:(Query.Const 1.0) ()
  in
  (* The one index kind answers ranges: a band edge is walkable into any
     side that has an index, and only into such a side. *)
  let reg = Registry.create () in
  Registry.add reg ~pos:1 ~column:0 (Wj_index.Index.build_trie tb ~columns:[ 0 ]);
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check (list (list int))) "into the indexed side" [ [ 0; 1 ] ] (orders plans);
  List.iter (check_steps_enter_indexed_sides reg) plans;
  Alcotest.(check bool) "not into the unindexed side" true
    (Walk_plan.of_order q reg [| 1; 0 |] = None);
  let reg = Registry.build_for_query q in
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check (list (list int))) "registry: both ways" [ [ 0; 1 ]; [ 1; 0 ] ]
    (orders plans);
  List.iter (check_steps_enter_indexed_sides reg) plans

(* ---- Walk_plan ------------------------------------------------------- *)

(* The paper's Figure 4: query graph R1-R2, R2-R3, R2-R4, R4-R5 with
   directions R1<->R2, R2->R3, R2->R4, R4->R5 admits exactly 15 plans. *)
let fig4_query_and_registry () =
  let mk name = int_table name [ "c12"; "c23"; "c24"; "c45" ] [ [ 0; 0; 0; 0 ] ] in
  let r1 = mk "r1" and r2 = mk "r2" and r3 = mk "r3" and r4 = mk "r4" and r5 = mk "r5" in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3); ("r4", r4); ("r5", r5) ]
      ~joins:
        [
          { left = (0, 0); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 1); op = Eq };
          { left = (1, 2); right = (3, 2); op = Eq };
          { left = (3, 3); right = (4, 3); op = Eq };
        ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.create () in
  let idx pos col = Registry.add reg ~pos ~column:col (Wj_index.Index.build_trie q.tables.(pos) ~columns:[ col ]) in
  idx 0 0; (* R2 -> R1 *)
  idx 1 0; (* R1 -> R2 *)
  idx 2 1; (* R2 -> R3 *)
  idx 3 2; (* R2 -> R4 *)
  idx 4 3; (* R4 -> R5 *)
  (q, reg)

let test_walk_plan_fig4_count () =
  let q, reg = fig4_query_and_registry () in
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check int) "15 plans (paper Fig. 4)" 15 (List.length plans);
  (* All plans start at R1 or R2. *)
  List.iter
    (fun (p : Walk_plan.t) ->
      Alcotest.(check bool) "start" true (p.order.(0) = 0 || p.order.(0) = 1);
      Alcotest.(check int) "covers all" 5 (Array.length p.order);
      Alcotest.(check int) "tree join" 0 (List.length p.nontree))
    plans

let test_walk_plan_chain_count () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let plans = Walk_plan.enumerate q reg in
  (* Chain of 3 fully indexed: orders 123, 213, 231, 321. *)
  Alcotest.(check int) "4 plans" 4 (List.length plans)

let test_walk_plan_max_plans () =
  let q, reg = fig4_query_and_registry () in
  Alcotest.(check int) "capped" 7 (List.length (Walk_plan.enumerate ~max_plans:7 q reg))

let test_walk_plan_cyclic_nontree () =
  (* Triangle: every plan walks 2 edges and verifies 1. *)
  let f = int_table "f" [ "a"; "b" ] [ [ 0; 0 ] ] in
  let g = int_table "g" [ "b"; "c" ] [ [ 0; 0 ] ] in
  let h = int_table "h" [ "c"; "a" ] [ [ 0; 0 ] ] in
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
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check bool) "plans exist" true (plans <> []);
  List.iter
    (fun (p : Walk_plan.t) ->
      Alcotest.(check int) "one non-tree edge" 1 (List.length p.nontree);
      Alcotest.(check int) "two steps" 2 (Array.length p.steps))
    plans

let test_walk_plan_of_order () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  (match Walk_plan.of_order q reg [| 0; 1; 2 |] with
  | Some p ->
    Alcotest.(check string) "describe" "r1 -> r2 -> r3" (Walk_plan.describe q p)
  | None -> Alcotest.fail "expected a plan");
  Alcotest.(check bool) "invalid order rejected" true
    (Walk_plan.of_order q reg [| 0; 2; 1 |] = None);
  Alcotest.(check bool) "wrong length rejected" true (Walk_plan.of_order q reg [| 0 |] = None)

(* ---- Walker ---------------------------------------------------------- *)

let test_walker_ht_weight () =
  (* With plan r1 -> r2 -> r3 the weight of a successful walk is
     |r1| * d2(t1) * d3(t2) (inverse of Eq. 2/3). *)
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 0; 1; 2 |]) in
  let prepared = Walker.prepare q reg plan in
  Alcotest.(check int) "start cardinality" 7 (Walker.start_cardinality prepared);
  Alcotest.(check bool) "uniform start" false (Walker.uses_olken_start prepared);
  let prng = Prng.create 12 in
  for _ = 1 to 1000 do
    match Walker.walk prepared prng with
    | Walker.Success { path; inv_p } ->
      (* Recompute the weight by hand. *)
      let b = Table.int_cell q.tables.(0) path.(0) 1 in
      let d2 = ref 0 in
      Table.iteri (fun _ row -> if Value.to_int row.(0) = b then incr d2) q.tables.(1);
      let c = Table.int_cell q.tables.(1) path.(1) 1 in
      let d3 = ref 0 in
      Table.iteri (fun _ row -> if Value.to_int row.(0) = c then incr d3) q.tables.(2);
      Alcotest.(check (float 1e-9))
        "inv_p = |R1| d2 d3"
        (float_of_int (7 * !d2 * !d3))
        inv_p;
      Alcotest.(check bool) "steps counted" true (Walker.steps_of_last_walk prepared > 0)
    | Walker.Failure { depth } -> Alcotest.(check bool) "depth sane" true (depth >= 0 && depth < 3)
  done

let test_walker_estimates_sum () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 0; 1; 2 |]) in
  let prepared = Walker.prepare q reg plan in
  let prng = Prng.create 99 in
  let est = Estimator.create Estimator.Sum in
  for _ = 1 to 50_000 do
    match Walker.walk prepared prng with
    | Walker.Success { path; inv_p } ->
      Estimator.add est ~u:inv_p ~v:(Walker.value_of prepared path)
    | Walker.Failure _ -> Estimator.add_failure est
  done;
  let truth = chain_true_sum () in
  let hw = Estimator.half_width est ~confidence:0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.2f ~ %.2f (hw %.2f)" (Estimator.estimate est) truth hw)
    true
    (Float.abs (Estimator.estimate est -. truth) < 3.0 *. hw)

let test_walker_all_plans_unbiased () =
  (* Every enumerated plan must estimate the same SUM. *)
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let truth = chain_true_sum () in
  List.iter
    (fun plan ->
      let prepared = Walker.prepare q reg plan in
      let prng = Prng.create 1234 in
      let est = Estimator.create Estimator.Sum in
      for _ = 1 to 30_000 do
        match Walker.walk prepared prng with
        | Walker.Success { path; inv_p } ->
          Estimator.add est ~u:inv_p ~v:(Walker.value_of prepared path)
        | Walker.Failure _ -> Estimator.add_failure est
      done;
      let hw = Estimator.half_width est ~confidence:0.99 in
      Alcotest.(check bool)
        (Printf.sprintf "plan %s: %.1f ~ %.1f" (Walk_plan.describe q plan)
           (Estimator.estimate est) truth)
        true
        (Float.abs (Estimator.estimate est -. truth) < 3.0 *. hw +. 1.0))
    (Walk_plan.enumerate q reg)

let test_walker_olken_start () =
  let q =
    chain_query
      ~predicates:[ Query.Cmp { table = 0; column = 1; op = Query.Ceq; value = Value.Int 30 } ]
      ()
  in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 0; 1; 2 |]) in
  let prepared = Walker.prepare q reg plan in
  Alcotest.(check bool) "olken start" true (Walker.uses_olken_start prepared);
  (* Two rows of r1 have b = 30. *)
  Alcotest.(check int) "qualifying count" 2 (Walker.start_cardinality prepared);
  let prng = Prng.create 3 in
  for _ = 1 to 200 do
    match Walker.walk prepared prng with
    | Walker.Success { path; _ } ->
      Alcotest.(check int) "start satisfies predicate" 30
        (Table.int_cell q.tables.(0) path.(0) 1)
    | Walker.Failure _ -> ()
  done

(* The Olken start's range is located once, at prepare: a walk selects
   its start row out of that span and probes the start index no more. *)
let test_walker_olken_start_located_once () =
  let q =
    chain_query
      ~predicates:[ Query.Cmp { table = 0; column = 1; op = Query.Cge; value = Value.Int 20 } ]
      ()
  in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 0; 1; 2 |]) in
  let prepared = Walker.prepare q reg plan in
  Alcotest.(check bool) "olken start" true (Walker.uses_olken_start prepared);
  let index = Option.get (Registry.find reg ~pos:0 ~column:1) in
  let before = Index.probes index in
  let prng = Prng.create 11 in
  let successes = ref 0 in
  for _ = 1 to 500 do
    match Walker.walk prepared prng with
    | Walker.Success _ -> incr successes
    | Walker.Failure _ -> ()
  done;
  Alcotest.(check bool) "walks succeed" true (!successes > 0);
  Alcotest.(check int) "no start probes" 0 (Index.probes index - before)

let test_walker_dead_end_fails () =
  (* r2 row (99, 999) joins nothing in r3: walks through it must fail. *)
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 0; 1; 2 |]) in
  let prepared = Walker.prepare q reg plan in
  let prng = Prng.create 5 in
  let failures = ref 0 and successes = ref 0 in
  for _ = 1 to 2000 do
    match Walker.walk prepared prng with
    | Walker.Success _ -> incr successes
    | Walker.Failure _ -> incr failures
  done;
  (* r1 row (7,50) has no r2 partner -> some failures at depth 1 as well. *)
  Alcotest.(check bool) "some failures" true (!failures > 0);
  Alcotest.(check bool) "some successes" true (!successes > 0)

let test_walker_band_join () =
  (* ta.v joins tb.v when tb.v - ta.v in [0, 2]. *)
  let ta = int_table "ta" [ "v" ] [ [ 0 ]; [ 5 ]; [ 10 ] ] in
  let tb = int_table "tb" [ "v" ] (List.init 13 (fun i -> [ i ])) in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Band { lo = 0; hi = 2 } } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  let exact = Exact.aggregate q reg in
  (* 0 -> {0,1,2}, 5 -> {5,6,7}, 10 -> {10,11,12}: 9 pairs. *)
  Alcotest.(check int) "exact band count" 9 exact.join_size;
  let out =
    Online.run_session (Run_config.make ~seed:2 ~max_walks:20_000 ~max_time:10.0 ()) q reg
  in
  Alcotest.(check bool)
    (Printf.sprintf "online band estimate %.2f" out.final.estimate)
    true
    (Float.abs (out.final.estimate -. 9.0) < 0.5)

let test_walker_eager_vs_lazy_checks () =
  (* Cyclic query: eager and lazy non-tree checking must agree statistically. *)
  let prng = Prng.create 31 in
  let pairs n = List.init n (fun _ -> [ Prng.int prng 20; Prng.int prng 20 ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs 300) in
  let g = int_table "g" [ "b"; "c" ] (pairs 300) in
  let h = int_table "h" [ "c"; "a" ] (pairs 300) in
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
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  List.iter
    (fun eager ->
      let out =
        Online.run_session ~eager_checks:eager
          (Run_config.make ~seed:21 ~max_walks:60_000 ~max_time:20.0
             ~plan_choice:Online.First_enumerated ())
          q reg
      in
      let hw = out.final.half_width in
      Alcotest.(check bool)
        (Printf.sprintf "eager=%b estimate %.1f ~ %.1f" eager out.final.estimate exact)
        true
        (Float.abs (out.final.estimate -. exact) < 4.0 *. hw +. 1.0))
    [ true; false ]

(* ---- Optimizer ------------------------------------------------------- *)

let test_optimizer_prefers_reverse_direction () =
  (* Figure 7 flavour: r1 rows mostly fail forward, but every r3 row walks
     back successfully.  The optimizer must prefer starting from r3. *)
  let r1 = int_table "r1" [ "a"; "b" ] (List.init 50 (fun i -> [ i; (if i < 2 then i else 1000 + i) ])) in
  let r2 = int_table "r2" [ "b"; "c" ] [ [ 0; 0 ]; [ 1; 1 ] ] in
  let r3 = int_table "r3" [ "c"; "d" ] [ [ 0; 5 ]; [ 1; 6 ] ] in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
        ]
      ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()
  in
  let reg = Registry.build_for_query q in
  let prng = Prng.create 55 in
  let result = Optimizer.choose q reg prng in
  (* Plans starting at r1 almost always fail (48/50 of its rows dead-end);
     r2- and r3-rooted plans always succeed.  The optimizer must avoid r1. *)
  Alcotest.(check bool) "avoids the bad start" true (result.best_plan.order.(0) <> 0);
  Alcotest.(check int) "trial walks counted"
    (List.fold_left (fun a (r : Optimizer.plan_report) -> a + r.trial_walks) 0 result.reports)
    result.total_trial_walks;
  let chosen = List.filter (fun (r : Optimizer.plan_report) -> r.chosen) result.reports in
  Alcotest.(check int) "exactly one chosen" 1 (List.length chosen)

let test_optimizer_no_plans () =
  let q = chain_query () in
  let reg = Registry.create () in
  let prng = Prng.create 1 in
  Alcotest.check_raises "no plans"
    (Invalid_argument "Optimizer.choose: query admits no walk plan")
    (fun () -> ignore (Optimizer.choose q reg prng))

let test_optimizer_one_candidate () =
  (* A single-table statement has one plan, fixed before any trial: it is
     chosen without a walk, and so is the session's plan. *)
  let t = int_table "t" [ "k"; "v" ] (List.init 20 (fun i -> [ i; i * i ])) in
  let q =
    Query.make ~tables:[ ("t", t) ] ~joins:[] ~agg:Estimator.Sum ~expr:(Col (0, 1)) ()
  in
  let reg = Registry.build_for_query q in
  let r = Optimizer.choose q reg (Prng.create 3) in
  Alcotest.(check int) "no trial walk" 0 r.total_trial_walks;
  (match r.reports with
  | [ p ] ->
    Alcotest.(check bool) "chosen" true p.chosen;
    Alcotest.(check int) "report walks" 0 p.trial_walks;
    Alcotest.(check (float 0.0)) "objective" infinity p.objective
  | ps -> Alcotest.failf "%d reports" (List.length ps));
  let out = Online.run_session (Run_config.make ~seed:3 ~max_walks:64 ()) q reg in
  Alcotest.(check int) "session trial walks" 0 out.optimizer_walks;
  Alcotest.(check int) "session walks" 64 out.final.walks

(* Each plan's trial walks and successes, in enumeration order, and the
   index of the chosen plan. *)
let trial_summary (r : Optimizer.result) =
  let walks = List.map (fun (p : Optimizer.plan_report) -> p.trial_walks) r.reports in
  let successes = List.map (fun (p : Optimizer.plan_report) -> p.trial_successes) r.reports in
  let rec chosen i = function
    | [] -> -1
    | (p : Optimizer.plan_report) :: ps -> if p.chosen then i else chosen (i + 1) ps
  in
  (walks, successes, chosen 0 r.reports)

let check_trials name q ~seed ~total ~walks ~successes ~chosen =
  let r = Optimizer.choose q (Registry.build_for_query q) (Prng.create seed) in
  let w, s, c = trial_summary r in
  Alcotest.(check int) (name ^ " total trial walks") total r.total_trial_walks;
  Alcotest.(check (list int)) (name ^ " trial walks") walks w;
  Alcotest.(check (list int)) (name ^ " trial successes") successes s;
  Alcotest.(check int) (name ^ " chosen plan") chosen c

(* A query that reaches tau before the first cut, and one with two plans
   (which is never cut), run the plain round-robin: these counts are that
   protocol's, one walk per plan per round until a plan has 100
   successes. *)
let test_optimizer_round_robin_pins () =
  let prng = Prng.create 7 in
  let pairs () = List.init 300 (fun _ -> [ Prng.int prng 20; Prng.int prng 20 ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs ()) in
  let g = int_table "g" [ "b"; "c" ] (pairs ()) in
  let h = int_table "h" [ "c"; "a" ] (pairs ()) in
  let triangle =
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
  (* 24 plans (k = 5): the first cut would come at round 312. *)
  check_trials "triangle" triangle ~seed:5 ~total:4272 ~walks:(List.init 24 (fun _ -> 178))
    ~successes:[ 7; 98; 9; 89; 9; 91; 5; 89; 10; 93; 8; 91; 8; 95; 14; 94; 8; 94; 4; 97; 9; 100; 8; 90 ]
    ~chosen:7;
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  (* 8 plans (k = 3): the first cut would come at round 1,250. *)
  check_trials "Q10" (Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q10 d) ~seed:5
    ~total:1472 ~walks:(List.init 8 (fun _ -> 184))
    ~successes:[ 5; 3; 8; 100; 97; 98; 17; 4 ] ~chosen:5;
  let prng = Prng.create 3 in
  let a = int_table "a" [ "k"; "v" ] (List.init 200 (fun i -> [ Prng.int prng 50; i ])) in
  let b = int_table "b" [ "k"; "w" ] (List.init 100 (fun i -> [ Prng.int prng 80; i ])) in
  let two =
    Query.make ~tables:[ ("a", a); ("b", b) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Eq } ]
      ~agg:Estimator.Sum ~expr:(Col (1, 1)) ()
  in
  check_trials "two plans" two ~seed:5 ~total:256 ~walks:[ 128; 128 ] ~successes:[ 100; 73 ]
    ~chosen:0

(* Q7 at SF 0.005: no plan reaches tau, so the 32 plans are halved at
   rounds 5000 lsr 4 .. 5000 lsr 1 and the two finalists run the 5,000-
   round backstop. *)
let test_optimizer_halving_cuts () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  let q = Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q7 d in
  let reg = Registry.build_for_query q in
  let run () = Optimizer.choose q reg (Prng.create 5) in
  let r = run () in
  let walks = List.map (fun (p : Optimizer.plan_report) -> p.trial_walks) r.reports in
  let plans_at w = List.length (List.filter (( = ) w) walks) in
  Alcotest.(check (list int)) "plans dropped at 312/625/1250/2500, finalists at 5000"
    [ 16; 8; 4; 2; 2 ]
    (List.map plans_at [ 312; 625; 1250; 2500; 5000 ]);
  Alcotest.(check int) "closed form"
    ((16 * 312) + (8 * 625) + (4 * 1250) + (2 * 2500) + (2 * 5000))
    r.total_trial_walks;
  List.iter
    (fun (p : Optimizer.plan_report) ->
      if p.chosen then Alcotest.(check int) "a finalist is chosen" 5000 p.trial_walks)
    r.reports;
  let fields (r : Optimizer.result) =
    List.map
      (fun (p : Optimizer.plan_report) ->
        (Walk_plan.describe q p.plan, p.trial_walks, p.trial_successes, p.var_x, p.cost_t,
         p.objective, p.chosen))
      r.reports
  in
  Alcotest.(check bool) "same seed, same reports" true (fields r = fields (run ()))

(* ---- Online ---------------------------------------------------------- *)

(* Trial walks pick the plan and nothing else: under [Optimize] the
   session's estimator, its walk count and its walk budget cover the
   chosen plan's main-loop walks alone. *)
let test_session_estimator_excludes_trials () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let out =
    Online.run_session (Run_config.make ~seed:4 ~max_walks:64 ~max_time:30.0 ()) q reg
  in
  Alcotest.(check bool) "Online ran trials" true (out.optimizer_walks > 64);
  Alcotest.(check int) "Online estimator walks" 64 (Estimator.n out.estimator);
  Alcotest.(check int) "Online report walks" 64 out.final.walks

let test_online_converges_and_stops () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let out =
    Online.run_session
      (Run_config.make ~seed:4 ~max_time:20.0 ~target:(Wj_stats.Target.relative 0.05) ())
      q reg
  in
  Alcotest.(check bool) "stopped on target" true (out.stopped_because = Online.Target_reached);
  let truth = chain_true_sum () in
  Alcotest.(check bool) "near truth" true
    (Float.abs (out.final.estimate -. truth) /. truth < 0.15)

let test_online_stop_reasons () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let out =
    Online.run_session (Run_config.make ~seed:4 ~max_walks:100 ~max_time:30.0 ()) q reg
  in
  Alcotest.(check bool) "walk budget" true
    (out.stopped_because = Online.Walk_budget_exhausted);
  Alcotest.(check bool) "walks close to budget" true (out.final.walks >= 100);
  let out2 = Online.run_session (Run_config.make ~seed:4 ~max_time:0.05 ()) q reg in
  Alcotest.(check bool) "time up" true (out2.stopped_because = Online.Time_up)

(* An empty join fails every walk: 0 ± 0 is no interval, so an absolute
   target must not count it as reached. *)
let test_online_absolute_target_needs_success () =
  let r1 = int_table "r1" [ "a"; "b" ] (List.init 20 (fun i -> [ i; i ])) in
  let r2 = int_table "r2" [ "b"; "c" ] (List.init 20 (fun i -> [ 100 + i; i ])) in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2) ]
      ~joins:[ { left = (0, 1); right = (1, 0); op = Eq } ]
      ~agg:Estimator.Count ~expr:(Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  let out =
    Online.run_session
      (Run_config.make ~seed:4 ~max_walks:500 ~max_time:30.0
         ~target:{ Wj_stats.Target.confidence = 0.95; width = Absolute 1.0 }
         ~plan_choice:Online.First_enumerated ())
      q reg
  in
  Alcotest.(check int) "no successes" 0 out.final.successes;
  Alcotest.(check bool) "stopped on the walk budget" true
    (out.stopped_because = Online.Walk_budget_exhausted)

let test_online_reports () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let count = ref 0 in
  let out =
    Online.run_session
      ~on_report:(fun r ->
        incr count;
        Alcotest.(check bool) "monotone walks" true (r.walks > 0))
      (Run_config.make ~seed:4 ~max_time:0.35 ~report_every:0.1 ())
      q reg
  in
  Alcotest.(check bool) "several reports" true (!count >= 2);
  Alcotest.(check int) "history matches" !count (List.length out.history)

let test_online_count_agg () =
  let q = chain_query ~agg:Estimator.Count () in
  let reg = Registry.build_for_query q in
  let out =
    Online.run_session (Run_config.make ~seed:6 ~max_walks:40_000 ~max_time:20.0 ()) q reg
  in
  let truth = float_of_int (chain_true_count ()) in
  Alcotest.(check bool)
    (Printf.sprintf "count %.2f ~ %.0f" out.final.estimate truth)
    true
    (Float.abs (out.final.estimate -. truth) < 3.0 *. out.final.half_width +. 0.5)

let test_online_fixed_vs_first () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let plan = Option.get (Walk_plan.of_order q reg [| 2; 1; 0 |]) in
  let out =
    Online.run_session
      (Run_config.make ~seed:6 ~max_walks:5_000 ~max_time:20.0
         ~plan_choice:(Online.Fixed plan) ())
      q reg
  in
  Alcotest.(check string) "fixed plan used" "r3 -> r2 -> r1" out.plan_description;
  Alcotest.(check (float 0.0)) "no optimizer time" 0.0 out.optimizer_time;
  let out2 =
    Online.run_session
      (Run_config.make ~seed:6 ~max_walks:5_000 ~max_time:20.0
         ~plan_choice:Online.First_enumerated ())
      q reg
  in
  Alcotest.(check string) "first enumerated" "r1 -> r2 -> r3" out2.plan_description

let test_online_group_by () =
  (* Group by r1.b; compare every group against the exact group answer. *)
  let q = chain_query () in
  let q = { q with group_by = Some (0, 1) } in
  let reg = Registry.build_for_query q in
  let exact = Exact.group_aggregate q reg in
  let out =
    Online.run_group_by_session
      (Run_config.make ~seed:3 ~max_walks:80_000 ~max_time:30.0 ())
      q reg
  in
  Alcotest.(check bool) "groups found" true (List.length out.groups >= 3);
  List.iter
    (fun (key, (r : Online.report)) ->
      Alcotest.(check int) "padded to total walks" out.total_walks r.walks;
      match List.assoc_opt key exact with
      | Some e ->
        Alcotest.(check bool)
          (Printf.sprintf "group %s: %.1f ~ %.1f" (Value.to_display key) r.estimate
             e.Exact.value)
          true
          (Float.abs (r.estimate -. e.Exact.value) < (4.0 *. r.half_width) +. 2.0)
      | None -> Alcotest.fail "unexpected group")
    out.groups

let test_online_group_by_requires_clause () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  Alcotest.check_raises "no group by"
    (Invalid_argument "Online.start_group_by_session: query has no GROUP BY") (fun () ->
      ignore (Online.run_group_by_session (Run_config.make ~max_time:0.01 ()) q reg))

let test_online_group_by_should_stop () =
  let q = { (chain_query ()) with group_by = Some (0, 1) } in
  let reg = Registry.build_for_query q in
  (* Cancellation is polled before the first walk: an always-true
     [should_stop] aborts at zero walks. *)
  let polled = ref 0 in
  let out =
    Online.run_group_by_session
      (Run_config.make ~seed:1 ~max_time:60.0 ~plan_choice:Online.First_enumerated
         ~should_stop:(fun () ->
           incr polled;
           true)
         ())
      q reg
  in
  Alcotest.(check int) "cancelled before any walk" 0 out.total_walks;
  Alcotest.(check bool) "should_stop polled" true (!polled > 0);
  (* A never-true [should_stop] leaves the walk budget in charge. *)
  let out2 =
    Online.run_group_by_session
      (Run_config.make ~seed:1 ~max_walks:500 ~max_time:60.0
         ~plan_choice:Online.First_enumerated
         ~should_stop:(fun () -> false)
         ())
      q reg
  in
  Alcotest.(check int) "budget respected" 500 out2.total_walks

(* ---- Walk steps ------------------------------------------------------ *)

(* One step, one cost: a plain step locates its neighbour set once and
   selects the drawn row out of that locate.  An equality locate is one
   directory lookup (cost 1), a band's range locate one binary search. *)
let test_step_cost_charged_once () =
  (* A two-table FK chain: s1.b = i mod 100 joins exactly one s2 row, so
     every walk succeeds with inv_p = |s1| * 1.  A zero-width band is the
     same join answered by a range locate. *)
  let s1 = int_table "s1" [ "a"; "b" ] (List.init 300 (fun i -> [ i; i mod 100 ])) in
  let s2 = int_table "s2" [ "b"; "c" ] (List.init 100 (fun i -> [ i; i ])) in
  let query op =
    Query.make
      ~tables:[ ("s1", s1); ("s2", s2) ]
      ~joins:[ { left = (0, 1); right = (1, 0); op } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  List.iter
    (fun (kind, index, op, probes, locate_cost) ->
      let q = query op in
      let reg = Registry.create () in
      Registry.add reg ~pos:1 ~column:0 index;
      let plan =
        match Walk_plan.of_order q reg [| 0; 1 |] with
        | Some p -> p
        | None -> Alcotest.fail "no plan s1 -> s2"
      in
      let prepared = Walker.prepare q reg plan in
      let step_cost = locate_cost + 1 in
      let prng = Prng.create 17 in
      for i = 1 to 256 do
        (* The uniform start probes no index: every probe is the step's. *)
        let before = Index.probes index in
        (match Walker.walk prepared prng with
        | Walker.Success { inv_p; _ } ->
          Alcotest.(check (float 0.0)) (Printf.sprintf "%s walk %d inv_p" kind i) 300.0 inv_p
        | Walker.Failure _ -> Alcotest.fail "walks cannot fail on this data");
        Alcotest.(check int)
          (Printf.sprintf "%s walk %d index probes per step" kind i)
          probes (Index.probes index - before);
        Alcotest.(check int)
          (Printf.sprintf "%s walk %d cost" kind i)
          (1 + step_cost)
          (Walker.steps_of_last_walk prepared)
      done)
    [
      ("trie", Index.build_trie s2 ~columns:[ 0 ], Query.Eq, 1, 1);
      (* ceil (log2 100) = 7 *)
      ("trie band", Index.build_trie s2 ~columns:[ 0 ], Query.Band { lo = 0; hi = 0 }, 1, 7);
    ]

(* The walk step allocates nothing and the path is the walker's own
   buffer: over every Q7 plan, a walk's minor allocation is its outcome
   block (5 words for a success, its float boxed; 2 for a failure; a Q7
   walk mostly fails).  Minor words are deterministic, unlike wall time,
   so this is the walk cost a test can pin. *)
let test_walk_allocation () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  let q = Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q7 d in
  let reg = Wj_tpch.Queries.registry q in
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check bool) "Q7 has plans" true (List.length plans > 1);
  List.iter
    (fun plan ->
      let prepared = Walker.prepare q reg plan in
      let prng = Prng.create 7 in
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Walker.walk prepared prng))
      done;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Walker.walk prepared prng))
      done;
      let per_walk = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per walk <= 5"
           (Walk_plan.describe q plan) per_walk)
        true (per_walk <= 5.0))
    plans

(* The paged read path adds nothing on a hit: Q3 paged through a pool
   that holds every page, warmed by a full scan, walks every plan with no
   new fault and within the in-memory walk's allocation bound.  A pool
   read hashes one int key and hands back the resident frame. *)
let test_paged_walk_allocation () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  let q = Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q3 d in
  let backend =
    Wj_storage.Backend.paged ~dir:(Wj_storage.Backend.temp_dir "wj_core")
      ~pool_pages:(1 lsl 16) ()
  in
  let tables, pool =
    Wj_storage.Backend.prepare_tables backend (Array.to_list q.Query.tables)
  in
  let pool = Option.get pool in
  let q = { q with Query.tables = Array.of_list tables } in
  Array.iter
    (fun t ->
      for c = 0 to Schema.arity (Table.schema t) - 1 do
        for row = 0 to Table.length t - 1 do
          ignore (Sys.opaque_identity (Table.cell t row c))
        done
      done)
    q.Query.tables;
  let reg = Wj_tpch.Queries.registry q in
  let plans = Walk_plan.enumerate q reg in
  Alcotest.(check bool) "Q3 has plans" true (List.length plans > 1);
  let misses = Wj_storage.Buffer_pool.misses pool in
  List.iter
    (fun plan ->
      let name = Walk_plan.describe q plan in
      let prepared = Walker.prepare q reg plan in
      let prng = Prng.create 7 in
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Walker.walk prepared prng))
      done;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Walker.walk prepared prng))
      done;
      let per_walk = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check int) (name ^ ": no new faults") misses
        (Wj_storage.Buffer_pool.misses pool);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per walk <= 5" name per_walk)
        true (per_walk <= 5.0))
    plans

(* Observing a run must not move a PRNG draw: a metrics + events sink on
   or off leaves every TPC-H shape's run bit-identical. *)
let test_sink_on_off_identical () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.01 () in
  let bits = Int64.bits_of_float in
  List.iter
    (fun spec ->
      let q = Wj_tpch.Queries.build ~variant:Standard spec d in
      let reg = Wj_tpch.Queries.registry q in
      let run ?sink () =
        Online.run_session
          (Run_config.make ~seed:5 ~max_time:infinity ~max_walks:1_000
             ~plan_choice:Run_config.First_enumerated ?sink ())
          q reg
      in
      let off = run () in
      let events = ref 0 in
      let on =
        run
          ~sink:
            (Wj_obs.Sink.make
               ~on_event:(fun _ -> incr events)
               ~metrics:(Wj_obs.Metrics.create ()) ())
          ()
      in
      let name = Wj_tpch.Queries.name_of spec in
      Alcotest.(check bool) (name ^ " events flowed") true (!events > 0);
      Alcotest.(check int) (name ^ " walks") off.final.walks on.final.walks;
      Alcotest.(check int) (name ^ " successes") off.final.successes on.final.successes;
      Alcotest.(check int64) (name ^ " estimate bits")
        (bits off.final.estimate) (bits on.final.estimate);
      Alcotest.(check int64) (name ^ " half-width bits")
        (bits off.final.half_width) (bits on.final.half_width))
    [ Wj_tpch.Queries.Q3; Wj_tpch.Queries.Q7; Wj_tpch.Queries.Q10 ]

(* ---- Walker.choose_start tie-breaking -------------------------------- *)

let test_choose_start_deterministic_tiebreak () =
  (* Two sargable predicates with identical qualifying counts: the one
     listed first in the query wins, in either listing order. *)
  let ta = int_table "ta" [ "a"; "b"; "j" ] [ [ 1; 2; 0 ]; [ 1; 2; 1 ]; [ 9; 9; 2 ] ] in
  let tb = int_table "tb" [ "j" ] [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let pa = Query.Cmp { table = 0; column = 0; op = Query.Ceq; value = Value.Int 1 } in
  let pb = Query.Cmp { table = 0; column = 1; op = Query.Ceq; value = Value.Int 2 } in
  let prepare_with predicates =
    let q =
      Query.make
        ~tables:[ ("ta", ta); ("tb", tb) ]
        ~joins:[ { left = (0, 2); right = (1, 0); op = Eq } ]
        ~predicates ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
    in
    let reg = Registry.build_for_query q in
    Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_trie ta ~columns:[ 0 ]);
    Registry.add reg ~pos:0 ~column:1 (Wj_index.Index.build_trie ta ~columns:[ 1 ]);
    let plan = Option.get (Walk_plan.of_order q reg [| 0; 1 |]) in
    Walker.prepare q reg plan
  in
  let p1 = prepare_with [ pa; pb ] in
  Alcotest.(check bool) "olken start" true (Walker.uses_olken_start p1);
  Alcotest.(check int) "tied count" 2 (Walker.start_cardinality p1);
  Alcotest.(check bool) "first listed wins (a first)" true
    (Walker.start_predicate p1 = Some pa);
  let p2 = prepare_with [ pb; pa ] in
  Alcotest.(check int) "tied count" 2 (Walker.start_cardinality p2);
  Alcotest.(check bool) "first listed wins (b first)" true
    (Walker.start_predicate p2 = Some pb);
  (* A strictly smaller count still beats listing order. *)
  let pc = Query.Cmp { table = 0; column = 0; op = Query.Ceq; value = Value.Int 9 } in
  let p3 = prepare_with [ pa; pc ] in
  Alcotest.(check int) "smaller count" 1 (Walker.start_cardinality p3);
  Alcotest.(check bool) "selective wins" true (Walker.start_predicate p3 = Some pc)

let () =
  Alcotest.run "wj_core"
    [
      ( "query",
        [
          Alcotest.test_case "validation" `Quick test_query_validation;
          Alcotest.test_case "expr eval" `Quick test_query_expr_eval;
          Alcotest.test_case "predicates" `Quick test_query_predicates;
          Alcotest.test_case "cmp ops" `Quick test_query_cmp_ops;
          Alcotest.test_case "check_join + ranges" `Quick test_query_check_join_and_ranges;
          Alcotest.test_case "group key" `Quick test_query_group_key;
          QCheck_alcotest.to_alcotest flip_involution;
          QCheck_alcotest.to_alcotest band_flip_equivalence;
        ] );
      ( "join_graph",
        [
          Alcotest.test_case "chain" `Quick test_join_graph_chain;
          Alcotest.test_case "directions follow indexes" `Quick
            test_join_graph_directed_by_indexes;
          Alcotest.test_case "band edge walkable over any slot" `Quick
            test_join_graph_band_over_any_slot;
        ] );
      ( "walk_plan",
        [
          Alcotest.test_case "figure 4 count" `Quick test_walk_plan_fig4_count;
          Alcotest.test_case "chain count" `Quick test_walk_plan_chain_count;
          Alcotest.test_case "max_plans cap" `Quick test_walk_plan_max_plans;
          Alcotest.test_case "cyclic non-tree" `Quick test_walk_plan_cyclic_nontree;
          Alcotest.test_case "of_order" `Quick test_walk_plan_of_order;
        ] );
      ( "walker",
        [
          Alcotest.test_case "HT weight formula" `Quick test_walker_ht_weight;
          Alcotest.test_case "estimates SUM" `Slow test_walker_estimates_sum;
          Alcotest.test_case "all plans unbiased" `Slow test_walker_all_plans_unbiased;
          Alcotest.test_case "olken start" `Quick test_walker_olken_start;
          Alcotest.test_case "olken start located once" `Quick
            test_walker_olken_start_located_once;
          Alcotest.test_case "dead ends fail" `Quick test_walker_dead_end_fails;
          Alcotest.test_case "band join" `Slow test_walker_band_join;
          Alcotest.test_case "eager vs lazy checks" `Slow test_walker_eager_vs_lazy_checks;
          Alcotest.test_case "a Q7 walk allocates only its outcome" `Quick
            test_walk_allocation;
          Alcotest.test_case "a paged Q3 walk allocates nothing on a hit" `Quick
            test_paged_walk_allocation;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "prefers reverse direction" `Quick
            test_optimizer_prefers_reverse_direction;
          Alcotest.test_case "no plans" `Quick test_optimizer_no_plans;
          Alcotest.test_case "one candidate, no trials" `Quick test_optimizer_one_candidate;
          Alcotest.test_case "round-robin before the first cut" `Quick
            test_optimizer_round_robin_pins;
          Alcotest.test_case "halving cuts on Q7" `Quick test_optimizer_halving_cuts;
        ] );
      ( "online",
        [
          Alcotest.test_case "converges + target stop" `Slow test_online_converges_and_stops;
          Alcotest.test_case "stop reasons" `Quick test_online_stop_reasons;
          Alcotest.test_case "estimator holds only main-loop walks" `Quick
            test_session_estimator_excludes_trials;
          Alcotest.test_case "absolute target needs a success" `Quick
            test_online_absolute_target_needs_success;
          Alcotest.test_case "periodic reports" `Quick test_online_reports;
          Alcotest.test_case "COUNT aggregate" `Slow test_online_count_agg;
          Alcotest.test_case "fixed and first plans" `Quick test_online_fixed_vs_first;
          Alcotest.test_case "group by matches exact" `Slow test_online_group_by;
          Alcotest.test_case "group by requires clause" `Quick
            test_online_group_by_requires_clause;
          Alcotest.test_case "group by should_stop" `Slow
            test_online_group_by_should_stop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "phase cost charged once" `Quick
            test_step_cost_charged_once;
          Alcotest.test_case "runs identical sink on/off" `Quick
            test_sink_on_off_identical;
          Alcotest.test_case "choose_start tie-break" `Quick
            test_choose_start_deterministic_tiebreak;
        ] );
    ]
