(* Tests for wj_index: Hash_index, the ordered index (a one-column trie),
   the Index facade. *)

module Hash_index = Wj_index.Hash_index
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

(* A scan: every located row, in slot order. *)
let scan l = List.init (Index.located_count l) (Index.located_nth l)

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
  let h = Index.build_hash t ~column:0 in
  Alcotest.(check (list int)) "rows" [ 0; 1 ] (scan (located_eq h 5));
  Alcotest.(check (list int)) "absent" [] (scan (located_eq h 7))

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
      List.iter
        (fun (kind, idx) ->
          let l = Index.locator idx in
          Index.locate_eq l k;
          if Index.located_count l <> d then fail "%s located_count %d" kind k;
          let located = List.init d (Index.located_nth l) in
          List.iteri
            (fun i r -> if Index.nth_eq idx k i <> r then fail "%s nth_eq %d %d" kind k i)
            located;
          (* Hash groups and trie runs list a key's rows in row order. *)
          if located <> rows then fail "%s located rows of %d" kind k;
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

(* ---- The ordered index: a one-column trie through the facade ---------- *)

(* The ordered index over [keys] (row i holds keys.(i)), as the registry
   builds it for a range predicate, a band join or a GROUP BY column. *)
let ordered keys = Index.build_trie (small_table (List.map (fun k -> (k, 0)) keys)) ~columns:[ 0 ]

let out_of_range = Invalid_argument "Trie.nth_range: out of range"

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
  let h = Index.build_hash t ~column:0 in
  let o = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check int) "hash count" 2 (Index.count_eq h 1);
  Alcotest.(check int) "ordered count" 2 (Index.count_eq o 1);
  Alcotest.(check bool) "hash nth valid" true (List.mem (Index.nth_eq h 1 0) [ 0; 2 ]);
  Alcotest.(check bool) "ordered nth valid" true (List.mem (Index.nth_eq o 1 1) [ 0; 2 ]);
  Alcotest.(check bool) "range support" true (Index.supports_range o);
  Alcotest.(check bool) "no range support" false (Index.supports_range h);
  Alcotest.check_raises "hash range"
    (Invalid_argument "Index.count_range: hash index cannot answer ranges") (fun () ->
      ignore (Index.count_range h ~lo:0 ~hi:1));
  Alcotest.check_raises "ordered nth_eq out of range" out_of_range (fun () ->
      ignore (Index.nth_eq o 1 2));
  Alcotest.check_raises "ordered nth_range out of range" out_of_range (fun () ->
      ignore (Index.nth_range o ~lo:1 ~hi:2 3))

let test_index_facade_range () =
  let t = small_table [ (10, 0); (20, 0); (30, 0); (40, 0) ] in
  let o = Index.build_trie t ~columns:[ 0 ] in
  Alcotest.(check int) "range count" 2 (Index.count_range o ~lo:15 ~hi:35);
  Alcotest.(check (list int)) "scanned rows" [ 1; 2 ] (scan (located_range o ~lo:15 ~hi:35));
  Alcotest.(check bool) "count cost positive" true (Index.count_cost o >= 1)

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

let test_narrow_hash_raises () =
  let h = Index.build_hash (small_table [ (1, 2); (1, 3) ]) ~column:0 in
  Alcotest.check_raises "hash span"
    (Invalid_argument "Index.narrow: a hash span has no key levels") (fun () ->
      Index.narrow (located_eq h 1) ~level:1 ~lo:2 ~hi:2)

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
          Alcotest.test_case "narrow on a hash span raises" `Quick test_narrow_hash_raises;
          QCheck_alcotest.to_alcotest narrow_vs_model;
        ] );
    ]
