(* Tests for wj_index: Hash_index, the counted B+-tree, the Index facade. *)

module Hash_index = Wj_index.Hash_index
module Btree = Wj_index.Btree
module Index = Wj_index.Index
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Prng = Wj_util.Prng

let small_table rows =
  let schema =
    Schema.make [ { Schema.name = "k"; ty = TInt }; { name = "v"; ty = TInt } ]
  in
  let t = Table.create ~name:"t" ~schema () in
  List.iter (fun (k, v) -> ignore (Table.insert t [| Int k; Int v |])) rows;
  t

(* ---- Hash_index ------------------------------------------------------ *)

let test_hash_build_count_nth () =
  let t = small_table [ (1, 0); (2, 0); (1, 0); (3, 0); (1, 0) ] in
  let h = Hash_index.build t ~column:0 in
  Alcotest.(check int) "count 1" 3 (Hash_index.count h 1);
  Alcotest.(check int) "count 2" 1 (Hash_index.count h 2);
  Alcotest.(check int) "count absent" 0 (Hash_index.count h 99);
  Alcotest.(check int) "nth insertion order" 0 (Hash_index.nth h 1 0);
  Alcotest.(check int) "nth 1" 2 (Hash_index.nth h 1 1);
  Alcotest.(check int) "nth 2" 4 (Hash_index.nth h 1 2);
  Alcotest.(check int) "distinct" 3 (Hash_index.distinct_keys h);
  Alcotest.(check int) "entries" 5 (Hash_index.total_entries h);
  Alcotest.(check int) "column" 0 (Hash_index.table_column h)

(* A walk step's draw: locate the key once, pick uniformly among the
   located count, select the row out of the locate. *)
let draw_located prng l =
  Index.located_nth l (Prng.int prng (Index.located_count l))

let located_eq idx key =
  let l = Index.locator idx in
  Index.locate_eq l key;
  l

let located_range idx ~lo ~hi =
  let l = Index.locator idx in
  Index.locate_range l ~lo ~hi;
  l

let test_hash_sample () =
  let t = small_table [ (1, 0); (1, 0); (2, 0) ] in
  let idx = Index.build_hash t ~column:0 in
  let prng = Prng.create 3 in
  for _ = 1 to 50 do
    let row = draw_located prng (located_eq idx 1) in
    Alcotest.(check bool) "row matches" true (row = 0 || row = 1)
  done;
  Alcotest.(check int) "absent" 0 (Index.located_count (located_eq idx 42))

let test_hash_iter () =
  let t = small_table [ (5, 0); (5, 0); (6, 0) ] in
  let h = Hash_index.build t ~column:0 in
  let seen = ref [] in
  Hash_index.iter_key h 5 (fun r -> seen := r :: !seen);
  Alcotest.(check (list int)) "rows" [ 1; 0 ] !seen

(* ---- Hash_index and located probes against a per-key model ----------- *)

(* Keys drawn so that columns repeat keys, hit both ends of the int range
   and spread over wide values. *)
let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-20) 20);
        (1, return min_int);
        (1, return max_int);
        (1, map (fun k -> k * 1024) (int_range (-8) 8));
        (1, int);
      ])

let column_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return []);
        (1, map2 (fun k n -> List.init n (fun _ -> k)) key_gen (int_range 1 200));
        (1, map (fun n -> List.init n (fun i -> (i * 7919) - 100_000)) (int_range 1 300));
        (5, list_size (int_range 0 300) key_gen);
      ])

let column_arb =
  QCheck.make
    ~print:QCheck.Print.(pair (list int) (list int))
    QCheck.Gen.(pair column_gen (list_size (int_range 0 10) key_gen))

(* [model] maps each key to its rows in row order; a key absent from the
   column maps to []. *)
let hash_matches_model (column, probes) =
  let t = small_table (List.map (fun k -> (k, 0)) column) in
  let keyed = List.mapi (fun row k -> (k, row)) column in
  let model k = List.filter_map (fun (k', row) -> if k' = k then Some row else None) keyed in
  let distinct = List.sort_uniq compare column in
  let h = Hash_index.build t ~column:0 in
  let kinds =
    [
      ("hash", Index.build_hash t ~column:0);
      ("ordered", Index.build_ordered t ~column:0);
      ("trie", Index.build_trie t ~columns:[ 0 ]);
    ]
  in
  let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  if Hash_index.distinct_keys h <> List.length distinct then fail "distinct_keys";
  if Hash_index.total_entries h <> List.length column then fail "total_entries";
  List.iter
    (fun k ->
      let rows = model k in
      let d = List.length rows in
      if Hash_index.count h k <> d then fail "count %d" k;
      List.iteri (fun i r -> if Hash_index.nth h k i <> r then fail "nth %d %d" k i) rows;
      if not (raises (fun () -> Hash_index.nth h k d)) then fail "nth %d past the end" k;
      if not (raises (fun () -> Hash_index.nth h k (-1))) then fail "nth %d -1" k;
      let seen = ref [] in
      Hash_index.iter_key h k (fun r -> seen := r :: !seen);
      if List.rev !seen <> rows then fail "iter_key %d" k;
      List.iter
        (fun (kind, idx) ->
          let l = Index.locator idx in
          Index.locate_eq l k;
          if Index.located_count l <> d then fail "%s located_count %d" kind k;
          let located = List.init d (Index.located_nth l) in
          List.iteri
            (fun i r -> if Index.nth_eq idx k i <> r then fail "%s nth_eq %d %d" kind k i)
            located;
          (* Hash groups and trie runs list a key's rows in row order; a
             B+-tree orders ties by its own splits. *)
          let expect = if kind = "ordered" then List.sort compare located else located in
          if expect <> rows then fail "%s located rows of %d" kind k;
          if not (raises (fun () -> Index.located_nth l d)) then
            fail "%s located_nth %d past the end" kind k)
        kinds)
    (distinct @ probes);
  true

let hash_vs_model =
  QCheck.Test.make ~name:"hash index and located probes agree with a per-key model"
    ~count:300 column_arb hash_matches_model

(* The edge cases the generator may miss, checked every run. *)
let test_hash_model_edges () =
  let check name column probes =
    match hash_matches_model (column, probes) with
    | true -> ()
    | false -> Alcotest.fail name
    | exception QCheck.Test.Test_fail (_, msgs) ->
      Alcotest.failf "%s: %s" name (String.concat "; " msgs)
  in
  check "no rows" [] [ 0; min_int; max_int ];
  check "one key on every row" (List.init 100 (fun _ -> 5)) [ 4; 6 ];
  check "all distinct" (List.init 1000 (fun i -> (i * 7919) - 100_000)) [ 1; -1 ];
  check "extreme keys" [ min_int; max_int; -1; 0; min_int; max_int; -1 ] [ 1; min_int + 1 ];
  check "colliding multiples" (List.init 500 (fun i -> (i mod 50) lsl 40)) [ 1 lsl 41 ]

(* ---- Btree: unit tests ----------------------------------------------- *)

let check_inv t =
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

let test_btree_empty () =
  let t = Btree.create () in
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check int) "count" 0 (Btree.count_range t ~lo:min_int ~hi:max_int);
  Alcotest.check_raises "no entry" (Invalid_argument "Btree.nth_in_range: out of range")
    (fun () -> ignore (Btree.nth_in_range t ~lo:min_int ~hi:max_int 0));
  check_inv t

let test_btree_sequential () =
  let t = Btree.create ~min_degree:2 () in
  for i = 0 to 999 do
    Btree.insert t ~key:i ~value:(i * 10)
  done;
  check_inv t;
  Alcotest.(check int) "length" 1000 (Btree.length t);
  Alcotest.(check int) "count all" 1000 (Btree.count_range t ~lo:0 ~hi:999);
  Alcotest.(check int) "count half" 500 (Btree.count_range t ~lo:0 ~hi:499);
  Alcotest.(check int) "count one" 1 (Btree.count_eq t 42);
  Alcotest.(check bool) "nth" true (Btree.nth t 42 = (42, 420));
  Alcotest.(check int) "min" 0 (fst (Btree.nth t 0));
  Alcotest.(check int) "max" 999 (fst (Btree.nth t 999));
  Alcotest.(check int) "rank_lt" 500 (Btree.rank_lt t 500)

let test_btree_reverse_and_duplicates () =
  let t = Btree.create ~min_degree:2 () in
  for i = 999 downto 0 do
    Btree.insert t ~key:(i / 10) ~value:i
  done;
  check_inv t;
  Alcotest.(check int) "count dup key" 10 (Btree.count_eq t 50);
  Alcotest.(check int) "range [10,19]" 100 (Btree.count_range t ~lo:10 ~hi:19);
  Alcotest.(check int) "empty range" 0 (Btree.count_range t ~lo:5 ~hi:4)

let test_btree_nth_in_range () =
  let t = Btree.create () in
  List.iter (fun k -> Btree.insert t ~key:k ~value:(100 + k)) [ 1; 3; 5; 7; 9 ];
  Alcotest.(check int) "first >= 4" 105 (Btree.nth_in_range t ~lo:4 ~hi:10 0);
  Alcotest.(check int) "second" 107 (Btree.nth_in_range t ~lo:4 ~hi:10 1);
  let out_of_range = Invalid_argument "Btree.nth_in_range: out of range" in
  Alcotest.check_raises "out of range" out_of_range (fun () ->
      ignore (Btree.nth_in_range t ~lo:4 ~hi:10 3));
  Alcotest.check_raises "empty" out_of_range (fun () ->
      ignore (Btree.nth_in_range t ~lo:10 ~hi:4 0))

let test_btree_iter_range () =
  let t = Btree.create ~min_degree:2 () in
  for i = 0 to 199 do
    Btree.insert t ~key:(i mod 50) ~value:i
  done;
  let collected = ref [] in
  Btree.iter_range t ~lo:10 ~hi:12 (fun k v -> collected := (k, v) :: !collected);
  Alcotest.(check int) "count" 12 (List.length !collected);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "key in range" true (k >= 10 && k <= 12);
      Alcotest.(check int) "value consistent" k (v mod 50))
    !collected;
  (* keys are emitted in order *)
  let keys = List.rev_map fst !collected in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys)

let test_btree_sample_uniform () =
  let t = Btree.create () in
  for i = 0 to 9 do
    Btree.insert t ~key:i ~value:i
  done;
  let idx = { Index.kind = Index.Ordered t; column = 0 } in
  let prng = Prng.create 5 in
  let counts = Array.make 10 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let row = draw_located prng (located_range idx ~lo:0 ~hi:9) in
    counts.(row) <- counts.(row) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d near uniform (%d)" i c)
        true
        (abs (c - (draws / 10)) < draws / 10 / 4))
    counts;
  Alcotest.(check int) "empty range" 0
    (Index.located_count (located_range idx ~lo:20 ~hi:30));
  Alcotest.(check int) "inverted range" 0
    (Index.located_count (located_range idx ~lo:9 ~hi:0))

let test_btree_of_table () =
  let t = small_table [ (3, 0); (1, 0); (2, 0); (1, 0) ] in
  let b = Btree.of_table t ~column:0 in
  Alcotest.(check int) "length" 4 (Btree.length b);
  Alcotest.(check int) "dup count" 2 (Btree.count_eq b 1);
  check_inv b

let test_btree_min_degree_validation () =
  Alcotest.check_raises "min_degree" (Invalid_argument "Btree.create: min_degree must be >= 2")
    (fun () -> ignore (Btree.create ~min_degree:1 ()))

let test_btree_extreme_keys () =
  let t = Btree.create () in
  Btree.insert t ~key:max_int ~value:1;
  Btree.insert t ~key:min_int ~value:2;
  Btree.insert t ~key:0 ~value:3;
  Alcotest.(check int) "all" 3 (Btree.count_range t ~lo:min_int ~hi:max_int);
  Alcotest.(check int) "upper half" 2 (Btree.count_range t ~lo:0 ~hi:max_int);
  Alcotest.(check bool) "max key present" true (Btree.count_eq t max_int = 1)

(* ---- Btree: property tests vs a reference model ---------------------- *)

type op = Ins of int * int | CountRange of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Ins (k, v)) (int_range 0 60) (int_range 0 1000));
        (2, map2 (fun a b -> CountRange (min a b, max a b)) (int_range 0 60) (int_range 0 60));
      ])

let op_print = function
  | Ins (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | CountRange (a, b) -> Printf.sprintf "Count(%d,%d)" a b

let btree_vs_model =
  QCheck.Test.make ~name:"btree agrees with a sorted-list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map op_print ops))
       QCheck.Gen.(list_size (int_range 0 400) op_gen))
    (fun ops ->
      let t = Btree.create ~min_degree:2 () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Ins (k, v) ->
            Btree.insert t ~key:k ~value:v;
            model := (k, v) :: !model
          | CountRange (lo, hi) ->
            let expected =
              List.length (List.filter (fun (k, _) -> k >= lo && k <= hi) !model)
            in
            if Btree.count_range t ~lo ~hi <> expected then ok := false)
        ops;
      (* Final deep comparison. *)
      (match Btree.check_invariants t with Ok () -> () | Error _ -> ok := false);
      if Btree.length t <> List.length !model then ok := false;
      let dumped = ref [] in
      Btree.iter_range t ~lo:min_int ~hi:max_int (fun k v -> dumped := (k, v) :: !dumped);
      let sort l = List.sort compare l in
      if sort !dumped <> sort !model then ok := false;
      (* rank/select consistency *)
      let model_keys = Array.of_list (List.sort compare (List.map fst !model)) in
      for r = 0 to Btree.length t - 1 do
        let k, _ = Btree.nth t r in
        if model_keys.(r) <> k then ok := false
      done;
      !ok)

let btree_rank_select_inverse =
  QCheck.Test.make ~name:"rank_lt and nth are consistent" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 50))
    (fun keys ->
      let t = Btree.create ~min_degree:2 () in
      List.iteri (fun i k -> Btree.insert t ~key:k ~value:i) keys;
      List.for_all
        (fun k ->
          let r = Btree.rank_lt t k in
          (* All entries below rank r have key < k; entry at r (if any) >= k *)
          (r = 0 || fst (Btree.nth t (r - 1)) < k)
          && (r = Btree.length t || fst (Btree.nth t r) >= k))
        keys)

(* ---- Index facade ---------------------------------------------------- *)

let test_index_facade_eq () =
  let t = small_table [ (1, 0); (2, 0); (1, 0) ] in
  let h = Index.build_hash t ~column:0 in
  let o = Index.build_ordered t ~column:0 in
  Alcotest.(check int) "hash count" 2 (Index.count_eq h 1);
  Alcotest.(check int) "ordered count" 2 (Index.count_eq o 1);
  Alcotest.(check bool) "hash nth valid" true (List.mem (Index.nth_eq h 1 0) [ 0; 2 ]);
  Alcotest.(check bool) "ordered nth valid" true (List.mem (Index.nth_eq o 1 1) [ 0; 2 ]);
  Alcotest.(check bool) "range support" true (Index.supports_range o);
  Alcotest.(check bool) "no range support" false (Index.supports_range h);
  Alcotest.check_raises "hash range"
    (Invalid_argument "Index.count_range: hash index cannot answer ranges") (fun () ->
      ignore (Index.count_range h ~lo:0 ~hi:1));
  Alcotest.check_raises "ordered nth_eq out of range"
    (Invalid_argument "Index.nth_eq: out of range") (fun () -> ignore (Index.nth_eq o 1 2));
  Alcotest.check_raises "ordered nth_range out of range"
    (Invalid_argument "Index.nth_range: out of range") (fun () ->
      ignore (Index.nth_range o ~lo:1 ~hi:2 3))

let test_index_facade_range () =
  let t = small_table [ (10, 0); (20, 0); (30, 0); (40, 0) ] in
  let o = Index.build_ordered t ~column:0 in
  Alcotest.(check int) "range count" 2 (Index.count_range o ~lo:15 ~hi:35);
  let rows = ref [] in
  Index.iter_range o ~lo:15 ~hi:35 (fun r -> rows := r :: !rows);
  Alcotest.(check (list int)) "iter rows" [ 2; 1 ] !rows;
  Alcotest.(check bool) "probe cost positive" true (Index.probe_cost o >= 1)

let () =
  Alcotest.run "wj_index"
    [
      ( "hash",
        [
          Alcotest.test_case "build/count/nth" `Quick test_hash_build_count_nth;
          Alcotest.test_case "sample" `Quick test_hash_sample;
          Alcotest.test_case "iter" `Quick test_hash_iter;
          Alcotest.test_case "model edge cases" `Quick test_hash_model_edges;
          QCheck_alcotest.to_alcotest hash_vs_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "sequential" `Quick test_btree_sequential;
          Alcotest.test_case "reverse + duplicates" `Quick test_btree_reverse_and_duplicates;
          Alcotest.test_case "nth_in_range" `Quick test_btree_nth_in_range;
          Alcotest.test_case "iter_range" `Quick test_btree_iter_range;
          Alcotest.test_case "sample uniform" `Slow test_btree_sample_uniform;
          Alcotest.test_case "of_table" `Quick test_btree_of_table;
          Alcotest.test_case "min_degree validation" `Quick test_btree_min_degree_validation;
          Alcotest.test_case "extreme keys" `Quick test_btree_extreme_keys;
          QCheck_alcotest.to_alcotest btree_vs_model;
          QCheck_alcotest.to_alcotest btree_rank_select_inverse;
        ] );
      ( "facade",
        [
          Alcotest.test_case "equality ops" `Quick test_index_facade_eq;
          Alcotest.test_case "range ops" `Quick test_index_facade_range;
        ] );
    ]
