(* Tests for wj_index: the one index kind (a trie whose level 0 has a
   key directory) against per-key and sorted models, the ordered lookups
   of a one-column trie, and the Index facade. *)

module Index = Wj_index.Index
module Trie = Wj_index.Trie
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

(* A scan: every located row, in slot order. *)
let scan l = List.init (Index.located_count l) (Index.located_nth l)

(* The distinct level-0 keys, each with the rows of its run, in cursor
   order. *)
let level0_runs idx =
  let c = Trie.cursor idx ~level:0 ~lo:0 ~hi:(Trie.length idx) in
  let acc = ref [] in
  while not (Trie.at_end c) do
    let lo, hi = Trie.child c in
    acc := (Trie.key c, List.init (hi - lo) (fun i -> Trie.row idx (lo + i))) :: !acc;
    Trie.next c
  done;
  List.rev !acc

(* ---- The level-0 key directory: equality lookups ----------------------- *)

let test_hash_build_count_nth () =
  let t = small_table [ (1, 0); (2, 0); (1, 0); (3, 0); (1, 0) ] in
  let h = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check int) "count 1" 3 (Index.count_eq h 1);
  Alcotest.(check int) "count 2" 1 (Index.count_eq h 2);
  Alcotest.(check int) "count absent" 0 (Index.count_eq h 99);
  Alcotest.(check int) "nth row order" 0 (Index.nth_eq h 1 0);
  Alcotest.(check int) "nth 1" 2 (Index.nth_eq h 1 1);
  Alcotest.(check int) "nth 2" 4 (Index.nth_eq h 1 2);
  Alcotest.(check (list int)) "distinct" [ 1; 2; 3 ] (List.map fst (level0_runs h));
  Alcotest.(check int) "entries" 5 (Trie.length h);
  let p0 = Index.probes h in
  ignore (Index.count_eq h 1);
  ignore (Index.nth_eq h 3 0);
  Alcotest.(check int) "one probe per lookup" 2 (Index.probes h - p0)

let test_hash_sample () =
  let t = small_table [ (1, 0); (1, 0); (2, 0) ] in
  let idx = Index.build_trie t ~columns:[ 0 ] in
  let prng = Prng.create 3 in
  for _ = 1 to 50 do
    let row = draw_located prng (located_eq idx 1) in
    Alcotest.(check bool) "row matches" true (row = 0 || row = 1)
  done;
  Alcotest.(check int) "absent" 0 (Index.located_count (located_eq idx 42))

let test_hash_iter () =
  let t = small_table [ (5, 0); (5, 0); (6, 0) ] in
  let h = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check (list int)) "rows" [ 0; 1 ] (scan (located_eq h 5));
  Alcotest.(check (list int)) "absent" [] (scan (located_eq h 7))

(* ---- One- and two-column tries against per-key and sorted models ------ *)

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

(* Empty, one repeated key, dense and sparse domains, and mixed keys. *)
let column_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return []);
        (1, map2 (fun k n -> List.init n (fun _ -> k)) key_gen (int_range 1 200));
        (1, map (fun n -> List.init n (fun i -> i mod 37)) (int_range 1 300));
        (1, map (fun n -> List.init n (fun i -> (i * 7919) - 100_000)) (int_range 1 300));
        (5, list_size (int_range 0 300) key_gen);
      ])

(* A table's two columns, probe keys and probe ranges.  The second column
   cycles through its own generated keys. *)
let table_arb =
  QCheck.make
    ~print:
      QCheck.Print.(
        quad (list int) (list int) (list int) (list (pair int int)))
    QCheck.Gen.(
      quad column_gen
        (list_size (int_range 1 20) key_gen)
        (list_size (int_range 0 10) key_gen)
        (list_size (int_range 0 10) (pair key_gen key_gen)))

let in_range ~lo ~hi k = k >= lo && k <= hi

(* The level-0 equality locate is one probe and lists a key's rows in
   (deeper keys, row) order, which on a one-column trie is row order, as
   a per-key model lists them; an absent key has count 0.  Range locates,
   level-1 narrows and the level-0 cursor agree with a sorted model. *)
let index_matches_models (column, bs, probes, ranges) =
  let b = Array.of_list bs in
  let rows = List.mapi (fun row a -> (a, b.(row mod Array.length b), row)) column in
  let t = small_table (List.map (fun (a, b, _) -> (a, b)) rows) in
  let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let distinct = List.sort_uniq compare column in
  let keys = distinct @ probes in
  let ranges = List.map (fun (x, y) -> (min x y, max x y)) ranges in
  List.iter
    (fun (name, columns, model) ->
      let idx = Index.build_trie t ~columns in
      let sorted = List.sort compare (List.map model rows) in
      let rows_where p = List.filter_map (fun (k, row) -> if p k then Some row else None) sorted in
      List.iter
        (fun k ->
          let p0 = Index.probes idx in
          let l = located_eq idx k in
          if Index.probes idx - p0 <> 1 then fail "%s locate_eq %d: probes" name k;
          let expected = rows_where (fun (a, _) -> a = k) in
          if scan l <> expected then fail "%s locate_eq %d: rows" name k;
          if List.length expected = 0 && Index.count_eq idx k <> 0 then
            fail "%s absent %d: count" name k;
          if not (raises (fun () -> Index.located_nth l (List.length expected))) then
            fail "%s located_nth %d past the end" name k;
          List.iteri
            (fun i r -> if Index.nth_eq idx k i <> r then fail "%s nth_eq %d %d" name k i)
            expected)
        keys;
      List.iter
        (fun (lo, hi) ->
          let p0 = Index.probes idx in
          let l = located_range idx ~lo ~hi in
          if Index.probes idx - p0 <> 1 then fail "%s locate_range: probes" name;
          if scan l <> rows_where (fun (a, _) -> in_range ~lo ~hi a) then
            fail "%s locate_range [%d, %d]" name lo hi;
          if Index.count_range idx ~lo ~hi <> Index.located_count l then
            fail "%s count_range [%d, %d]" name lo hi;
          if List.length columns = 2 then
            List.iter
              (fun k ->
                let l = located_eq idx k in
                Index.narrow l ~level:1 ~lo ~hi;
                if scan l <> rows_where (fun (a, b) -> a = k && in_range ~lo ~hi b) then
                  fail "%s narrow %d to [%d, %d]" name k lo hi)
              keys)
        ranges;
      let runs = List.map (fun k -> (k, rows_where (fun (a, _) -> a = k))) distinct in
      if level0_runs idx <> runs then fail "%s level-0 cursor" name;
      List.iter
        (fun k ->
          let c = Trie.cursor idx ~level:0 ~lo:0 ~hi:(Trie.length idx) in
          Trie.seek c k;
          match (Trie.at_end c, List.find_opt (fun k' -> k' >= k) distinct) with
          | true, None -> ()
          | false, Some k' when Trie.key c = k' -> ()
          | _ -> fail "%s seek %d" name k)
        keys)
    [
      ("one column", [ 0 ], fun (a, _, row) -> ((a, a), row));
      ("two columns", [ 0; 1 ], fun (a, b, row) -> ((a, b), row));
    ];
  true

let hash_vs_model =
  QCheck.Test.make ~name:"hash index and located probes agree with a per-key model"
    ~count:300 table_arb index_matches_models

(* The edge cases the generator may miss, checked every run. *)
let test_hash_model_edges () =
  let check name column probes =
    match index_matches_models (column, [ 3; -1; 3 ], probes, [ (min_int, max_int); (-1, 5) ]) with
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

(* ---- The ordered index: a one-column trie through the facade ---------- *)

(* The ordered index over [keys] (row i holds keys.(i)), as the registry
   builds it for a range predicate, a band join or a GROUP BY column. *)
let ordered keys = Index.build_trie (small_table (List.map (fun k -> (k, 0)) keys)) ~columns:[ 0 ]

let out_of_range = Invalid_argument "Index.located_nth: out of range"

(* Every row in rank order: keys ascending, ties by row id. *)
let dump o = scan (located_range o ~lo:min_int ~hi:max_int)

let test_ordered_empty () =
  let o = ordered [] in
  Alcotest.(check int) "count" 0 (Index.count_range o ~lo:min_int ~hi:max_int);
  Alcotest.check_raises "no entry" out_of_range (fun () ->
      ignore (Index.nth_range o ~lo:min_int ~hi:max_int 0));
  Alcotest.(check (list int)) "no rows" [] (dump o)

let test_ordered_sequential () =
  let o = ordered (List.init 1000 Fun.id) in
  Alcotest.(check int) "count all" 1000 (Index.count_range o ~lo:0 ~hi:999);
  Alcotest.(check int) "count half" 500 (Index.count_range o ~lo:0 ~hi:499);
  Alcotest.(check int) "count one" 1 (Index.count_eq o 42);
  Alcotest.(check int) "nth" 42 (Index.nth_range o ~lo:min_int ~hi:max_int 42);
  Alcotest.(check int) "min" 0 (Index.nth_range o ~lo:min_int ~hi:max_int 0);
  Alcotest.(check int) "max" 999 (Index.nth_range o ~lo:min_int ~hi:max_int 999);
  Alcotest.(check int) "rank_lt" 500 (Index.count_range o ~lo:min_int ~hi:499)

let test_ordered_reverse_and_duplicates () =
  (* Row r holds key (999 - r) / 10: keys arrive in descending order. *)
  let o = ordered (List.init 1000 (fun r -> (999 - r) / 10)) in
  Alcotest.(check int) "count dup key" 10 (Index.count_eq o 50);
  Alcotest.(check int) "range [10,19]" 100 (Index.count_range o ~lo:10 ~hi:19);
  Alcotest.(check int) "empty range" 0 (Index.count_range o ~lo:5 ~hi:4);
  Alcotest.(check (list int)) "ties in row order"
    [ 490; 491; 492; 493; 494; 495; 496; 497; 498; 499 ]
    (List.init 10 (Index.nth_eq o 50))

let test_ordered_nth_range () =
  let o = ordered [ 1; 3; 5; 7; 9 ] in
  Alcotest.(check int) "first >= 4" 2 (Index.nth_range o ~lo:4 ~hi:10 0);
  Alcotest.(check int) "second" 3 (Index.nth_range o ~lo:4 ~hi:10 1);
  Alcotest.check_raises "out of range" out_of_range (fun () ->
      ignore (Index.nth_range o ~lo:4 ~hi:10 3));
  Alcotest.check_raises "empty" out_of_range (fun () ->
      ignore (Index.nth_range o ~lo:10 ~hi:4 0))

let test_ordered_iter_range () =
  let keys = Array.init 200 (fun i -> i mod 50) in
  let o = ordered (Array.to_list keys) in
  let rows = scan (located_range o ~lo:10 ~hi:12) in
  Alcotest.(check int) "count" 12 (List.length rows);
  List.iter
    (fun r -> Alcotest.(check bool) "key in range" true (keys.(r) >= 10 && keys.(r) <= 12))
    rows;
  (* Emitted in (key, row) order. *)
  let order = List.map (fun r -> (keys.(r), r)) rows in
  Alcotest.(check bool) "sorted" true (List.sort compare order = order)

let test_ordered_sample_uniform () =
  let idx = ordered (List.init 10 Fun.id) in
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

let test_ordered_of_table () =
  let o = Index.build_trie (small_table [ (3, 0); (1, 0); (2, 0); (1, 0) ]) ~columns:[ 0 ] in
  Alcotest.(check int) "length" 4 (Index.count_range o ~lo:min_int ~hi:max_int);
  Alcotest.(check int) "dup count" 2 (Index.count_eq o 1);
  Alcotest.(check (list int)) "rank order" [ 1; 3; 2; 0 ] (dump o)

let test_ordered_key_columns_validation () =
  Alcotest.check_raises "no key columns" (Invalid_argument "Index.build_trie: no key columns")
    (fun () -> ignore (Index.build_trie (small_table []) ~columns:[]))

let test_ordered_extreme_keys () =
  let o = ordered [ max_int; min_int; 0 ] in
  Alcotest.(check int) "all" 3 (Index.count_range o ~lo:min_int ~hi:max_int);
  Alcotest.(check int) "upper half" 2 (Index.count_range o ~lo:0 ~hi:max_int);
  Alcotest.(check bool) "max key present" true (Index.count_eq o max_int = 1);
  Alcotest.(check (list int)) "rank order" [ 1; 2; 0 ] (dump o)

(* ---- The ordered index: property tests vs a reference model ----------- *)

(* The index is static: the generated keys are its rows, then every range
   count, the full dump and every rank are checked against a sorted list. *)
let ordered_vs_model =
  QCheck.Test.make ~name:"agrees with a sorted-list model" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list (pair int int)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 400) (int_range 0 60))
           (list_size (int_range 0 100)
              (map2 (fun a b -> (min a b, max a b)) (int_range 0 60) (int_range 0 60)))))
    (fun (keys, ranges) ->
      let o = ordered keys in
      let model = List.sort compare (List.mapi (fun row k -> (k, row)) keys) in
      let ok = ref true in
      List.iter
        (fun (lo, hi) ->
          let expected = List.length (List.filter (fun (k, _) -> k >= lo && k <= hi) model) in
          if Index.count_range o ~lo ~hi <> expected then ok := false)
        ranges;
      (* Final deep comparison: the rows in (key, row) order. *)
      if dump o <> List.map snd model then ok := false;
      (* rank/select consistency *)
      let n = List.length model in
      if Index.count_range o ~lo:min_int ~hi:max_int <> n then ok := false;
      List.iteri
        (fun r (_, row) -> if Index.nth_range o ~lo:min_int ~hi:max_int r <> row then ok := false)
        model;
      !ok)

(* rank_lt k is the count of keys below k; nth r the row of rank r. *)
let ordered_rank_select_inverse =
  QCheck.Test.make ~name:"rank_lt and nth are consistent" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 50))
    (fun keys ->
      let o = ordered keys in
      let key = Array.of_list keys in
      let n = Array.length key in
      let nth r = key.(Index.nth_range o ~lo:min_int ~hi:max_int r) in
      List.for_all
        (fun k ->
          let r = if k = min_int then 0 else Index.count_range o ~lo:min_int ~hi:(k - 1) in
          (* All entries below rank r have key < k; entry at r (if any) >= k *)
          (r = 0 || nth (r - 1) < k) && (r = n || nth r >= k))
        keys)

(* ---- Index facade ---------------------------------------------------- *)

let test_index_facade_eq () =
  let t = small_table [ (1, 0); (2, 0); (1, 0) ] in
  let o = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check int) "count" 2 (Index.count_eq o 1);
  Alcotest.(check int) "absent count" 0 (Index.count_eq o 7);
  Alcotest.(check (list int)) "nth in row order" [ 0; 2 ] (List.init 2 (Index.nth_eq o 1));
  Alcotest.(check int) "range of one key" 2 (Index.count_range o ~lo:1 ~hi:1);
  Alcotest.check_raises "nth_eq out of range" out_of_range (fun () ->
      ignore (Index.nth_eq o 1 2));
  Alcotest.check_raises "nth_eq absent" out_of_range (fun () -> ignore (Index.nth_eq o 7 0));
  Alcotest.check_raises "nth_range out of range" out_of_range (fun () ->
      ignore (Index.nth_range o ~lo:1 ~hi:2 3))

let test_index_facade_range () =
  let t = small_table [ (10, 0); (20, 0); (30, 0); (40, 0) ] in
  let o = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check int) "range count" 2 (Index.count_range o ~lo:15 ~hi:35);
  Alcotest.(check (list int)) "scanned rows" [ 1; 2 ] (scan (located_range o ~lo:15 ~hi:35));
  (* An equality locate is one directory lookup; a range locate, or any
     locate on a deeper trie, one binary search per level. *)
  Alcotest.(check int) "equality cost" 1 (Index.count_cost o ~range:false);
  Alcotest.(check int) "range cost" 2 (Index.count_cost o ~range:true);
  let o2 = Index.build_trie t ~columns:[ 0; 1 ] in
  Alcotest.(check int) "two-level equality cost" 4 (Index.count_cost o2 ~range:false)

(* ---- Narrowing a located span ----------------------------------------- *)

(* A two-column trie over (a, b) rows, located at one [a] and narrowed at
   level 1 to a [b] range, lists exactly the model's rows with that [a]
   and [b] in range, in (b, row) order; each narrow is one probe. *)
let narrow_vs_model =
  QCheck.Test.make ~name:"narrow agrees with a sorted-list model" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair (list (pair int int)) (list (triple int int int)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 300) (pair (int_range 0 8) (int_range (-20) 20)))
           (list_size (int_range 1 40)
              (triple (int_range (-1) 9) (int_range (-25) 25) (int_range (-25) 25)))))
    (fun (rows, probes) ->
      let idx = Index.build_trie (small_table rows) ~columns:[ 0; 1 ] in
      let model = List.sort compare (List.mapi (fun row (a, b) -> (a, b, row)) rows) in
      List.for_all
        (fun (a, lo, hi) ->
          let l = located_eq idx a in
          let p0 = Index.probes idx in
          Index.narrow l ~level:1 ~lo ~hi;
          let expected =
            List.filter_map
              (fun (a', b, row) -> if a' = a && b >= lo && b <= hi then Some row else None)
              model
          in
          Index.probes idx - p0 = 1
          && Index.located_count l = List.length expected
          && scan l = expected)
        probes)

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
      ( "ordered",
        [
          Alcotest.test_case "empty" `Quick test_ordered_empty;
          Alcotest.test_case "sequential" `Quick test_ordered_sequential;
          Alcotest.test_case "reverse + duplicates" `Quick test_ordered_reverse_and_duplicates;
          Alcotest.test_case "nth_range" `Quick test_ordered_nth_range;
          Alcotest.test_case "iter_range" `Quick test_ordered_iter_range;
          Alcotest.test_case "sample uniform" `Slow test_ordered_sample_uniform;
          Alcotest.test_case "of_table" `Quick test_ordered_of_table;
          Alcotest.test_case "key columns validation" `Quick test_ordered_key_columns_validation;
          Alcotest.test_case "extreme keys" `Quick test_ordered_extreme_keys;
          QCheck_alcotest.to_alcotest ordered_vs_model;
          QCheck_alcotest.to_alcotest ordered_rank_select_inverse;
        ] );
      ( "facade",
        [
          Alcotest.test_case "equality ops" `Quick test_index_facade_eq;
          Alcotest.test_case "range ops" `Quick test_index_facade_range;
          QCheck_alcotest.to_alcotest narrow_vs_model;
        ] );
    ]
