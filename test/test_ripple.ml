(* Tests for wj_ripple: ripple join and classic index ripple join. *)

module Ripple = Wj_ripple.Ripple
module Index_ripple = Wj_ripple.Index_ripple
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Exact = Wj_exec.Exact
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Prng = Wj_util.Prng
module Estimator = Wj_stats.Estimator

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

(* Random 2-table equi-join with moderate fan-out. *)
let two_table_query ?(agg = Estimator.Count) ?(predicates = []) seed n =
  let prng = Prng.create seed in
  let ta = int_table "ta" [ "k"; "w" ] (List.init n (fun _ -> [ Prng.int prng 40; Prng.int prng 100 ])) in
  let tb = int_table "tb" [ "k"; "v" ] (List.init n (fun _ -> [ Prng.int prng 40; Prng.int prng 100 ])) in
  Query.make
    ~tables:[ ("ta", ta); ("tb", tb) ]
    ~joins:[ { left = (0, 0); right = (1, 0); op = Eq } ]
    ~predicates ~agg ~expr:(Col (1, 1)) ()

let three_table_query seed n =
  let prng = Prng.create seed in
  let mk name c1 c2 = int_table name [ c1; c2 ] (List.init n (fun _ -> [ Prng.int prng 30; Prng.int prng 30 ])) in
  let r1 = mk "r1" "a" "b" and r2 = mk "r2" "b" "c" and r3 = mk "r3" "c" "d" in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()

let check_close name est hw truth =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.4g ~ %.4g (hw %.3g)" name est truth hw)
    true
    (Float.abs (est -. truth) <= (4.0 *. hw) +. (0.05 *. Float.abs truth) +. 1.0)

(* ---- Ripple ---------------------------------------------------------- *)

let test_ripple_count_two_tables () =
  let q = two_table_query 1 800 in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  let out = Ripple.run ~seed:2 ~max_rounds:400 ~max_time:30.0 q reg in
  check_close "RJ count" out.final.estimate out.final.half_width exact

let test_ripple_sum_three_tables () =
  let q = three_table_query 5 400 in
  let reg = Registry.build_for_query q in
  let exact = (Exact.aggregate q reg).value in
  let out = Ripple.run ~seed:3 ~max_rounds:300 ~max_time:30.0 q reg in
  check_close "RJ sum" out.final.estimate out.final.half_width exact

let test_ripple_exhaustion_is_exact () =
  (* Running past exhaustion of every table computes the exact join and the
     finite-population correction collapses the CI. *)
  let q = two_table_query 7 200 in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  let out = Ripple.run ~seed:4 ~max_rounds:10_000 ~max_time:60.0 q reg in
  Alcotest.(check (float 1e-6)) "exact at exhaustion" exact out.final.estimate;
  Alcotest.(check (float 1e-6)) "CI collapsed" 0.0 out.final.half_width

let test_ripple_avg () =
  let q = two_table_query ~agg:Estimator.Avg 9 600 in
  let reg = Registry.build_for_query q in
  let exact = (Exact.aggregate q reg).value in
  let out = Ripple.run ~seed:5 ~max_rounds:500 ~max_time:30.0 q reg in
  check_close "RJ avg" out.final.estimate out.final.half_width exact

let test_ripple_with_predicate () =
  let predicates = [ Query.Cmp { table = 0; column = 1; op = Query.Clt; value = Value.Int 50 } ] in
  let q = two_table_query ~predicates 11 600 in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  let out = Ripple.run ~seed:6 ~max_rounds:500 ~max_time:30.0 q reg in
  check_close "RJ with predicate" out.final.estimate out.final.half_width exact

let test_ripple_index_assisted () =
  (* Index-assisted mode samples qualifying tuples only; the population of
     the predicate table becomes the qualifying count. *)
  let predicates = [ Query.Cmp { table = 0; column = 1; op = Query.Clt; value = Value.Int 20 } ] in
  let q = two_table_query ~predicates 13 800 in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  let out = Ripple.run ~seed:7 ~mode:Ripple.Index_assisted ~max_rounds:600 ~max_time:30.0 q reg in
  Alcotest.(check bool) "mode recorded" true (out.mode = Ripple.Index_assisted);
  check_close "IRJ" out.final.estimate out.final.half_width exact

let test_ripple_target_stop () =
  let q = two_table_query 15 2000 in
  let reg = Registry.build_for_query q in
  let out =
    Ripple.run ~seed:8 ~target:(Wj_stats.Target.relative 0.2) ~max_time:30.0 q reg
  in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  Alcotest.(check bool) "stopped early" true (out.final.walks < 2000);
  check_close "RJ target" out.final.estimate out.final.half_width exact

let test_ripple_reports () =
  let q = two_table_query 17 60_000 in
  let reg = Registry.build_for_query q in
  let seen = ref 0 in
  let out =
    Ripple.run ~seed:9 ~max_time:0.5 ~report_every:0.05 ~on_report:(fun _ -> incr seen) q
      reg
  in
  Alcotest.(check bool) "reports fired" true (!seen >= 1);
  Alcotest.(check int) "history" !seen (List.length out.history)

let test_ripple_rejects_variance () =
  let q = two_table_query ~agg:Estimator.Variance 1 10 in
  let reg = Registry.build_for_query q in
  Alcotest.check_raises "variance unsupported"
    (Invalid_argument "Ripple.run: only SUM, COUNT and AVG are supported") (fun () ->
      ignore (Ripple.run ~max_time:0.01 q reg))

let test_ripple_rejects_band () =
  let ta = int_table "ta" [ "v" ] [ [ 1 ] ] in
  let tb = int_table "tb" [ "v" ] [ [ 1 ] ] in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Band { lo = 0; hi = 1 } } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Registry.build_for_query q in
  Alcotest.check_raises "band unsupported"
    (Invalid_argument "Ripple.run: only equality joins are supported") (fun () ->
      ignore (Ripple.run ~max_time:0.01 q reg))

let test_ripple_cyclic () =
  (* Triangle query: combos must verify the non-tree edge. *)
  let prng = Prng.create 23 in
  let pairs n = List.init n (fun _ -> [ Prng.int prng 12; Prng.int prng 12 ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs 200) in
  let g = int_table "g" [ "b"; "c" ] (pairs 200) in
  let h = int_table "h" [ "c"; "a" ] (pairs 200) in
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
  let out = Ripple.run ~seed:10 ~max_rounds:5_000 ~max_time:60.0 q reg in
  Alcotest.(check (float 1e-6)) "cycle exact at exhaustion" exact out.final.estimate

(* ---- Index_ripple ---------------------------------------------------- *)

let test_index_ripple_sum () =
  let q = three_table_query 31 500 in
  let reg = Registry.build_for_query q in
  let exact = (Exact.aggregate q reg).value in
  let r = Index_ripple.run ~seed:3 ~max_samples:4_000 ~max_time:30.0 q reg in
  check_close "classic IRJ sum" r.estimate r.half_width exact;
  Alcotest.(check bool) "samples counted" true (r.walks > 0);
  Alcotest.(check bool) "completions counted" true (r.successes > 0)

let test_index_ripple_count () =
  let q = two_table_query 33 600 in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  let r = Index_ripple.run ~seed:4 ~max_samples:4_000 ~max_time:30.0 q reg in
  check_close "classic IRJ count" r.estimate r.half_width exact

let test_index_ripple_start_choice () =
  let q = three_table_query 35 100 in
  let reg = Registry.build_for_query q in
  let r = Index_ripple.run ~seed:5 ~start:2 ~max_samples:500 ~max_time:30.0 q reg in
  Alcotest.(check bool) "ran" true (r.walks = 500);
  Alcotest.check_raises "invalid start rejects"
    (Invalid_argument "Index_ripple.run: no plan starts at the given table") (fun () ->
      ignore (Index_ripple.run ~start:99 ~max_time:0.1 q reg))

let test_index_ripple_target () =
  let q = two_table_query 37 2000 in
  let reg = Registry.build_for_query q in
  let r =
    Index_ripple.run ~seed:6 ~target:(Wj_stats.Target.relative 0.1) ~max_time:30.0 q reg
  in
  let exact = float_of_int (Exact.aggregate q reg).join_size in
  Alcotest.(check bool) "target met" true (r.half_width <= 0.11 *. Float.abs r.estimate);
  check_close "classic IRJ target" r.estimate r.half_width exact

let test_index_ripple_rejects_avg () =
  let q = two_table_query ~agg:Estimator.Avg 39 10 in
  let reg = Registry.build_for_query q in
  Alcotest.check_raises "avg unsupported"
    (Invalid_argument "Index_ripple.run: only SUM and COUNT are supported") (fun () ->
      ignore (Index_ripple.run ~max_time:0.01 q reg))

let () =
  Alcotest.run "wj_ripple"
    [
      ( "ripple",
        [
          Alcotest.test_case "count, 2 tables" `Slow test_ripple_count_two_tables;
          Alcotest.test_case "sum, 3 tables" `Slow test_ripple_sum_three_tables;
          Alcotest.test_case "exhaustion is exact" `Slow test_ripple_exhaustion_is_exact;
          Alcotest.test_case "avg" `Slow test_ripple_avg;
          Alcotest.test_case "predicate" `Slow test_ripple_with_predicate;
          Alcotest.test_case "index-assisted" `Slow test_ripple_index_assisted;
          Alcotest.test_case "target stop" `Slow test_ripple_target_stop;
          Alcotest.test_case "reports" `Quick test_ripple_reports;
          Alcotest.test_case "rejects variance" `Quick test_ripple_rejects_variance;
          Alcotest.test_case "rejects band" `Quick test_ripple_rejects_band;
          Alcotest.test_case "cyclic" `Slow test_ripple_cyclic;
        ] );
      ( "index_ripple",
        [
          Alcotest.test_case "sum" `Slow test_index_ripple_sum;
          Alcotest.test_case "count" `Slow test_index_ripple_count;
          Alcotest.test_case "start choice" `Quick test_index_ripple_start_choice;
          Alcotest.test_case "target" `Slow test_index_ripple_target;
          Alcotest.test_case "rejects avg" `Quick test_index_ripple_rejects_avg;
        ] );
    ]
