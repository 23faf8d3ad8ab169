(* Tests for wj_storage: Value, Schema, Table, Catalog, Date_codec. *)

module Value = Wj_storage.Value
module Schema = Wj_storage.Schema
module Table = Wj_storage.Table
module Catalog = Wj_storage.Catalog
module Date_codec = Wj_storage.Date_codec

(* ---- Value ----------------------------------------------------------- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_range (-1000.0) 1000.0);
        map (fun s -> Value.Str s) (string_size (int_range 0 5));
        return Value.Null;
      ])

let value_arb = QCheck.make ~print:Value.to_display value_gen

let test_value_accessors () =
  Alcotest.(check int) "to_int" 5 (Value.to_int (Int 5));
  Alcotest.check_raises "to_int of str" (Invalid_argument "Value.to_int: not an Int")
    (fun () -> ignore (Value.to_int (Str "a")))

let test_value_equal () =
  Alcotest.(check bool) "int=int" true (Value.equal (Int 3) (Int 3));
  Alcotest.(check bool) "int=float" true (Value.equal (Int 3) (Float 3.0));
  Alcotest.(check bool) "str<>int" false (Value.equal (Str "3") (Int 3));
  Alcotest.(check bool) "null=null" true (Value.equal Null Null);
  Alcotest.(check bool) "null<>int" false (Value.equal Null (Int 0))

let test_value_compare_cross_type () =
  Alcotest.(check bool) "null smallest" true (Value.compare Null (Int min_int) < 0);
  Alcotest.(check bool) "numeric < str" true (Value.compare (Int 999) (Str "") < 0);
  Alcotest.(check bool) "int/float numeric" true (Value.compare (Int 2) (Float 2.5) < 0)

let value_compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:1000
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))

let value_compare_transitive =
  QCheck.Test.make ~name:"compare is transitive" ~count:1000
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let test_value_type_of () =
  Alcotest.(check bool) "int" true (Value.type_of (Int 1) = Some Value.TInt);
  Alcotest.(check bool) "null" true (Value.type_of Null = None)

(* ---- Schema ---------------------------------------------------------- *)

let sample_schema () =
  Schema.make
    [ { Schema.name = "id"; ty = Value.TInt }; { name = "price"; ty = TFloat };
      { name = "label"; ty = TStr } ]

let test_schema_basics () =
  let s = sample_schema () in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check (option int)) "find id" (Some 0) (Schema.find s "id");
  Alcotest.(check (option int)) "find label" (Some 2) (Schema.find s "label");
  Alcotest.(check (option int)) "find missing" None (Schema.find s "nope");
  Alcotest.(check int) "find_exn" 1 (Schema.find_exn s "price");
  Alcotest.(check bool) "ty_of" true (Schema.ty_of s 1 = Value.TFloat)

let test_schema_errors () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Schema.make: duplicate column id")
    (fun () ->
      ignore
        (Schema.make [ { Schema.name = "id"; ty = TInt }; { name = "id"; ty = TStr } ]));
  Alcotest.check_raises "empty" (Invalid_argument "Schema.make: empty column list")
    (fun () -> ignore (Schema.make []))

let test_schema_check_tuple () =
  let s = sample_schema () in
  Alcotest.(check bool) "good" true
    (Schema.check_tuple s [| Int 1; Float 2.0; Str "a" |]);
  Alcotest.(check bool) "null ok" true (Schema.check_tuple s [| Null; Null; Null |]);
  Alcotest.(check bool) "bad type" false
    (Schema.check_tuple s [| Int 1; Str "x"; Str "a" |]);
  Alcotest.(check bool) "bad arity" false (Schema.check_tuple s [| Int 1 |])

(* ---- Table ----------------------------------------------------------- *)

let test_table_insert_fetch () =
  let t = Table.create ~name:"t" ~schema:(sample_schema ()) () in
  let r0 = Table.insert t [| Int 1; Float 10.0; Str "a" |] in
  let r1 = Table.insert t [| Int 2; Float 20.0; Str "b" |] in
  Alcotest.(check int) "row ids dense" 0 r0;
  Alcotest.(check int) "row ids dense" 1 r1;
  Alcotest.(check int) "length" 2 (Table.length t);
  Alcotest.(check int) "int_cell" 2 (Table.int_cell t 1 0);
  Alcotest.(check (float 0.0)) "float_cell" 20.0 (Table.float_cell t 1 1);
  Alcotest.(check bool) "cell" true (Value.equal (Str "a") (Table.cell t 0 2))

let test_table_schema_enforced () =
  let t = Table.create ~name:"t" ~schema:(sample_schema ()) () in
  Alcotest.check_raises "bad tuple"
    (Invalid_argument "Table.insert(t): tuple does not match schema") (fun () ->
      ignore (Table.insert t [| Str "x"; Float 1.0; Str "y" |]))

let test_table_iteration () =
  let t = Table.create ~name:"t" ~schema:(sample_schema ()) () in
  for i = 0 to 9 do
    ignore (Table.insert t [| Int i; Float (float_of_int i); Str "s" |])
  done;
  let sum = Table.fold (fun acc row -> acc + Value.to_int row.(0)) 0 t in
  Alcotest.(check int) "fold" 45 sum;
  let count = ref 0 in
  Table.iteri (fun i row -> if Value.to_int row.(0) = i then incr count) t;
  Alcotest.(check int) "iteri aligned" 10 !count;
  Alcotest.(check int) "column_index" 1 (Table.column_index t "price")

(* ---- Catalog --------------------------------------------------------- *)

let test_catalog () =
  let c = Catalog.create () in
  let t = Table.create ~name:"users" ~schema:(sample_schema ()) () in
  Catalog.add_table c t;
  Alcotest.(check bool) "found" true (Catalog.table c "users" <> None);
  Alcotest.(check bool) "missing" true (Catalog.table c "ghosts" = None);
  Alcotest.(check int) "tables" 1 (List.length (Catalog.tables c));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Catalog.add_table: duplicate table users") (fun () ->
      Catalog.add_table c t)

(* ---- Date_codec ------------------------------------------------------ *)

let test_dates_known () =
  Alcotest.(check int) "epoch" 0 (Date_codec.of_ymd 1992 1 1);
  Alcotest.(check int) "second day" 1 (Date_codec.of_ymd 1992 1 2);
  (* 1992 is a leap year: Jan 31 + Feb 29 = 60 days before Mar 1. *)
  Alcotest.(check int) "1992-03-01" 60 (Date_codec.of_ymd 1992 3 1);
  Alcotest.(check string) "to_string" "1995-03-15"
    (Date_codec.to_string (Date_codec.of_ymd 1995 3 15))

let test_dates_roundtrip_all () =
  for day = Date_codec.min_day to Date_codec.max_day do
    let y, m, d = Date_codec.to_ymd day in
    Alcotest.(check int) "roundtrip" day (Date_codec.of_ymd y m d)
  done

let test_dates_monotone () =
  let prev = ref (-1) in
  for y = 1992 to 1998 do
    for m = 1 to 12 do
      let day = Date_codec.of_ymd y m 1 in
      Alcotest.(check bool) "monotone" true (day > !prev);
      prev := day
    done
  done

let test_dates_errors () =
  Alcotest.check_raises "year" (Invalid_argument "Dates.of_ymd: year out of range")
    (fun () -> ignore (Date_codec.of_ymd 1991 1 1));
  Alcotest.check_raises "month" (Invalid_argument "Dates.of_ymd: month out of range")
    (fun () -> ignore (Date_codec.of_ymd 1995 13 1));
  Alcotest.check_raises "day" (Invalid_argument "Dates.of_ymd: day out of range")
    (fun () -> ignore (Date_codec.of_ymd 1995 2 29))

let () =
  Alcotest.run "wj_storage"
    [
      ( "value",
        [
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "compare cross-type" `Quick test_value_compare_cross_type;
          Alcotest.test_case "type_of" `Quick test_value_type_of;
          QCheck_alcotest.to_alcotest value_compare_total_order;
          QCheck_alcotest.to_alcotest value_compare_transitive;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "errors" `Quick test_schema_errors;
          Alcotest.test_case "check_tuple" `Quick test_schema_check_tuple;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/fetch" `Quick test_table_insert_fetch;
          Alcotest.test_case "schema enforced" `Quick test_table_schema_enforced;
          Alcotest.test_case "iteration" `Quick test_table_iteration;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables" `Quick test_catalog;
        ] );
      ( "dates",
        [
          Alcotest.test_case "known values" `Quick test_dates_known;
          Alcotest.test_case "roundtrip all days" `Quick test_dates_roundtrip_all;
          Alcotest.test_case "monotone" `Quick test_dates_monotone;
          Alcotest.test_case "errors" `Quick test_dates_errors;
        ] );
    ]
