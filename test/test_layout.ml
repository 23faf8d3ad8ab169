(* Regression coverage for the columnar storage layout.

   The golden estimates below are pinned at generator seed 7, sf 0.01,
   walk seed 424242, 20k walk budget.  A storage change must reproduce
   them bit for bit: same PRNG draw order, same float arithmetic order,
   same plan choice.  Values are compared through their "%h" hex rendering
   so a mismatch shows the exact bits that moved.  The optimized rows cover
   the chosen plan's 20k main-loop walks alone: the optimizer's trial walks
   pick the plan from their own PRNG stream and are neither in the
   estimate nor in the budget. *)

module Queries = Wj_tpch.Queries
module Generator = Wj_tpch.Generator
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Exact = Wj_exec.Exact
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
open Column_reads

let dataset = lazy (Generator.generate ~seed:7 ~sf:0.01 ())

type golden = {
  spec : Queries.spec;
  first : string;  (* estimate under the First_enumerated plan *)
  first_walks : int;
  first_successes : int;
  opt : string;  (* estimate under the optimizer's plan *)
  opt_walks : int;
  opt_successes : int;
  plan : string;
  exact : string;
  join_size : int;
}

let goldens =
  [
    {
      spec = Queries.Q3;
      first = "0x1.ea21a8558ac29p+24";
      first_walks = 20_000;
      first_successes = 454;
      opt = "0x1.ea21a8558ac29p+24";
      opt_walks = 20_000;
      opt_successes = 454;
      plan = "customer -> orders -> lineitem";
      exact = "0x1.21f739febf5ep+25";
      join_size = 323;
    };
    {
      spec = Queries.Q7;
      first = "0x1.156d64c32c00dp+20";
      first_walks = 20_000;
      first_successes = 8;
      opt = "0x1.a297683232e4ap+21";
      opt_walks = 20_000;
      opt_successes = 287;
      plan = "n2 -> customer -> orders -> lineitem -> supplier -> n1";
      exact = "0x1.753f47f4ac20fp+21";
      join_size = 28;
    };
    {
      spec = Queries.Q10;
      first = "0x1.30fefe2d4c3d8p+27";
      first_walks = 20_000;
      first_successes = 412;
      opt = "0x1.049cd11cd87a8p+27";
      opt_walks = 20_000;
      opt_successes = 9657;
      plan = "orders -> lineitem -> customer -> nation";
      exact = "0x1.060c316ba4fd6p+27";
      join_size = 1163;
    };
  ]

let hex f = Printf.sprintf "%h" f

let test_golden g () =
  let d = Lazy.force dataset in
  let name = Queries.name_of g.spec in
  let q = Queries.build ~variant:Standard g.spec d in
  let reg = Queries.registry q in
  let out =
    Online.run_session
      (Run_config.make ~seed:424242 ~max_time:infinity ~max_walks:20_000
         ~plan_choice:Online.First_enumerated ())
      q reg
  in
  Alcotest.(check string) (name ^ " pg-plan estimate") g.first (hex out.final.estimate);
  Alcotest.(check int) (name ^ " pg-plan walks") g.first_walks out.final.walks;
  Alcotest.(check int) (name ^ " pg-plan successes") g.first_successes out.final.successes;
  let out =
    Online.run_session
      (Run_config.make ~seed:424242 ~max_time:infinity ~max_walks:20_000 ())
      q reg
  in
  Alcotest.(check string) (name ^ " optimized estimate") g.opt (hex out.final.estimate);
  Alcotest.(check int) (name ^ " optimized walks") g.opt_walks out.final.walks;
  Alcotest.(check int) (name ^ " optimized successes") g.opt_successes out.final.successes;
  Alcotest.(check string) (name ^ " chosen plan") g.plan out.plan_description;
  (* The walks draw from their own stream, so the optimized estimate is the
     chosen plan's fixed-plan estimate, bit for bit. *)
  let fixed =
    Online.run_session
      (Run_config.make ~seed:424242 ~max_time:infinity ~max_walks:20_000
         ~plan_choice:(Online.Fixed out.plan) ())
      q reg
  in
  Alcotest.(check string) (name ^ " optimized = fixed chosen plan") g.opt
    (hex fixed.final.estimate);
  let r = Exact.aggregate q reg in
  Alcotest.(check string) (name ^ " exact value") g.exact (hex r.value);
  Alcotest.(check int) (name ^ " exact join size") g.join_size r.join_size

(* ---- Columnar round-trip property ------------------------------------- *)

(* Arbitrary (schema, rows) pairs: every cell is schema-valid or Null, with
   a small string alphabet so the dictionary encoder sees repeats. *)
let value_gen ty =
  QCheck.Gen.(
    match ty with
    | Value.TInt ->
      frequency
        [
          (9, map (fun i -> Value.Int i) (int_range (-10_000) 10_000));
          (1, return Value.Null);
        ]
    | Value.TFloat ->
      frequency
        [
          ( 9,
            map
              (fun i -> Value.Float (float_of_int i /. 16.0))
              (int_range (-100_000) 100_000) );
          (1, return Value.Null);
        ]
    | Value.TStr ->
      frequency
        [
          (9, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab"; "FURNITURE"; "x|y" ]));
          (1, return Value.Null);
        ])

let table_gen =
  QCheck.Gen.(
    list_size (int_range 1 6) (oneofl [ Value.TInt; Value.TFloat; Value.TStr ])
    >>= fun tys ->
    list_size (int_range 0 50) (flatten_l (List.map value_gen tys))
    >>= fun rows -> return (tys, rows))

let print_case (tys, rows) =
  let ty = function Value.TInt -> "int" | Value.TFloat -> "float" | Value.TStr -> "str" in
  Printf.sprintf "schema=[%s] rows=[%s]"
    (String.concat ";" (List.map ty tys))
    (String.concat "; "
       (List.map
          (fun r ->
            String.concat ","
              (List.map (fun v -> Format.asprintf "%a" Value.pp v) r))
          rows))

let columnar_roundtrip =
  QCheck.Test.make ~name:"columnar store round-trips Value.t rows" ~count:300
    (QCheck.make ~print:print_case table_gen)
    (fun (tys, rows) ->
      let schema =
        Schema.make
          (List.mapi (fun i ty -> { Schema.name = Printf.sprintf "c%d" i; ty }) tys)
      in
      let t = Table.create ~capacity:1 ~name:"prop" ~schema () in
      let expected = List.map Array.of_list rows in
      List.iteri
        (fun i r ->
          let id = Table.insert t r in
          if id <> i then QCheck.Test.fail_reportf "insert returned %d, want %d" id i)
        expected;
      if Table.length t <> List.length expected then
        QCheck.Test.fail_reportf "length %d, want %d" (Table.length t)
          (List.length expected);
      List.iteri
        (fun i r ->
          let got = Table.row t i in
          if not (Array.for_all2 Value.equal r got) then
            QCheck.Test.fail_reportf "row %d mismatch" i;
          Array.iteri
            (fun c v ->
              if not (Value.equal v (Table.cell t i c)) then
                QCheck.Test.fail_reportf "cell (%d,%d) mismatch" i c;
              (* Typed accessors agree with the boxed view. *)
              match v with
              | Value.Null ->
                if not (is_null t i c) then
                  QCheck.Test.fail_reportf "null bit missing at (%d,%d)" i c
              | Value.Int x ->
                if ints_of t c i <> x then
                  QCheck.Test.fail_reportf "int slot (%d,%d) mismatch" i c
              | Value.Float x ->
                if floats_of t c i <> x then
                  QCheck.Test.fail_reportf "float slot (%d,%d) mismatch" i c
              | Value.Str s ->
                if (dict_of t c).(ints_of t c i) <> s then
                  QCheck.Test.fail_reportf "dict round-trip (%d,%d) mismatch" i c)
            r)
        expected;
      true)

(* ---- Typed writers and diagnostics ------------------------------------ *)

let small_schema =
  Schema.make
    [
      { Schema.name = "k"; ty = Value.TInt };
      { Schema.name = "x"; ty = Value.TFloat };
      { Schema.name = "s"; ty = Value.TStr };
    ]

let test_push_commit () =
  let t = Table.create ~capacity:2 ~name:"w" ~schema:small_schema () in
  Table.push_int t ~col:0 7;
  Table.push_float t ~col:1 1.5;
  Table.push_str t ~col:2 "hi";
  Alcotest.(check int) "row id" 0 (Table.commit_row t);
  (* Partial rows are rejected with the offending column named. *)
  Table.push_int t ~col:0 8;
  Alcotest.check_raises "ragged commit"
    (Invalid_argument "Table.commit_row(w): column x holds 0 values for row 1")
    (fun () -> ignore (Table.commit_row t));
  Table.rollback_row t;
  Alcotest.(check int) "rollback keeps committed rows" 1 (Table.length t);
  ignore (Table.insert t [| Int 9; Null; Str "hi" |]);
  Alcotest.(check bool) "null recorded" true (is_null t 1 1);
  Alcotest.(check bool) "dictionary shares ids" true (ints_of t 2 0 = ints_of t 2 1)

let test_diagnostics () =
  let t = Table.create ~name:"diag" ~schema:small_schema () in
  ignore (Table.insert t [| Int 1; Float 2.0; Str "z" |]);
  Alcotest.check_raises "int_cell on float column"
    (Invalid_argument "Table.int_cell: non-int column: diag.x row 0") (fun () ->
      ignore (Table.int_cell t 0 1));
  Alcotest.check_raises "float_cell on string column"
    (Invalid_argument "Table.float_cell: non-numeric column: diag.s row 0")
    (fun () -> ignore (Table.float_cell t 0 2));
  Alcotest.check_raises "row id out of range"
    (Invalid_argument "Table.cell(diag): row 5 out of bounds") (fun () ->
      ignore (Table.cell t 5 0))

let () =
  Alcotest.run "wj_layout"
    [
      ( "golden",
        List.map
          (fun g ->
            Alcotest.test_case
              (Queries.name_of g.spec ^ " estimates unchanged")
              `Slow (test_golden g))
          goldens );
      ( "columnar",
        [
          QCheck_alcotest.to_alcotest columnar_roundtrip;
          Alcotest.test_case "push/commit/rollback" `Quick test_push_commit;
          Alcotest.test_case "diagnostics" `Quick test_diagnostics;
        ] );
    ]
