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

let test_hash_sample () =
  let t = small_table [ (1, 0); (1, 0); (2, 0) ] in
  let idx = Index.build_hash t ~column:0 in
  let prng = Prng.create 3 in
  for _ = 1 to 50 do
    let row = draw_located prng (Index.locate_eq idx 1) in
    Alcotest.(check bool) "row matches" true (row = 0 || row = 1)
  done;
  Alcotest.(check int) "absent" 0 (Index.located_count (Index.locate_eq idx 42))

let test_hash_iter () =
  let t = small_table [ (5, 0); (5, 0); (6, 0) ] in
  let h = Hash_index.build t ~column:0 in
  let seen = ref [] in
  Hash_index.iter_key h 5 (fun r -> seen := r :: !seen);
  Alcotest.(check (list int)) "rows" [ 1; 0 ] !seen

(* ---- Btree: unit tests ----------------------------------------------- *)

let check_inv t =
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

let test_btree_empty () =
  let t = Btree.create () in
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check int) "count" 0 (Btree.count_range t ~lo:min_int ~hi:max_int);
  Alcotest.(check bool) "min" true (Btree.min_key t = None);
  Alcotest.(check bool) "max" true (Btree.max_key t = None);
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
  Alcotest.(check bool) "min" true (Btree.min_key t = Some 0);
  Alcotest.(check bool) "max" true (Btree.max_key t = Some 999);
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
  Alcotest.(check bool) "first >= 4" true
    (Btree.nth_in_range t ~lo:4 ~hi:10 0 = Some (5, 105));
  Alcotest.(check bool) "second" true
    (Btree.nth_in_range t ~lo:4 ~hi:10 1 = Some (7, 107));
  Alcotest.(check bool) "out of range" true (Btree.nth_in_range t ~lo:4 ~hi:10 3 = None);
  Alcotest.(check bool) "empty" true (Btree.nth_in_range t ~lo:10 ~hi:4 0 = None)

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

let test_btree_remove_simple () =
  let t = Btree.create ~min_degree:2 () in
  for i = 0 to 99 do
    Btree.insert t ~key:i ~value:i
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "removed" true (Btree.remove t ~key:i ~value:i)
  done;
  check_inv t;
  Alcotest.(check int) "length" 50 (Btree.length t);
  Alcotest.(check bool) "odd kept" true (Btree.mem t 51);
  Alcotest.(check bool) "even gone" false (Btree.mem t 50);
  Alcotest.(check bool) "remove absent" false (Btree.remove t ~key:50 ~value:50)

let test_btree_remove_duplicates_by_value () =
  let t = Btree.create ~min_degree:2 () in
  for v = 0 to 9 do
    Btree.insert t ~key:7 ~value:v
  done;
  Alcotest.(check bool) "remove value 4" true (Btree.remove t ~key:7 ~value:4);
  Alcotest.(check int) "count" 9 (Btree.count_eq t 7);
  Alcotest.(check bool) "4 gone" false (Btree.remove t ~key:7 ~value:4);
  check_inv t

let test_btree_drain () =
  let t = Btree.create ~min_degree:2 () in
  let n = 500 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:(i * 7 mod 101) ~value:i
  done;
  for i = 0 to n - 1 do
    Alcotest.(check bool) "removed" true (Btree.remove t ~key:(i * 7 mod 101) ~value:i);
    if i mod 50 = 0 then check_inv t
  done;
  Alcotest.(check int) "empty" 0 (Btree.length t);
  check_inv t

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
    let row = draw_located prng (Index.locate_range idx ~lo:0 ~hi:9) in
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
    (Index.located_count (Index.locate_range idx ~lo:20 ~hi:30));
  Alcotest.(check int) "inverted range" 0
    (Index.located_count (Index.locate_range idx ~lo:9 ~hi:0))

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
  Alcotest.(check bool) "max key present" true (Btree.mem t max_int)

(* ---- Btree: property tests vs a reference model ---------------------- *)

type op = Ins of int * int | Del of int * int | CountRange of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Ins (k, v)) (int_range 0 60) (int_range 0 1000));
        (3, map2 (fun k v -> Del (k, v)) (int_range 0 60) (int_range 0 1000));
        (2, map2 (fun a b -> CountRange (min a b, max a b)) (int_range 0 60) (int_range 0 60));
      ])

let op_print = function
  | Ins (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | Del (k, v) -> Printf.sprintf "Del(%d,%d)" k v
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
          | Del (k, v) ->
            let in_model = List.mem (k, v) !model in
            let removed = Btree.remove t ~key:k ~value:v in
            if removed <> in_model then ok := false;
            if in_model then begin
              let dropped = ref false in
              model :=
                List.filter
                  (fun e ->
                    if (not !dropped) && e = (k, v) then begin
                      dropped := true;
                      false
                    end
                    else true)
                  !model
            end
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
      ignore (Index.count_range h ~lo:0 ~hi:1))

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
        ] );
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_btree_empty;
          Alcotest.test_case "sequential" `Quick test_btree_sequential;
          Alcotest.test_case "reverse + duplicates" `Quick test_btree_reverse_and_duplicates;
          Alcotest.test_case "nth_in_range" `Quick test_btree_nth_in_range;
          Alcotest.test_case "iter_range" `Quick test_btree_iter_range;
          Alcotest.test_case "remove simple" `Quick test_btree_remove_simple;
          Alcotest.test_case "remove duplicates by value" `Quick
            test_btree_remove_duplicates_by_value;
          Alcotest.test_case "drain" `Quick test_btree_drain;
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
