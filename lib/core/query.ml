module Value = Wj_storage.Value
module Table = Wj_storage.Table

type join_op =
  | Eq
  | Band of { lo : int; hi : int }

type join_cond = {
  left : int * int;
  right : int * int;
  op : join_op;
}

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type predicate =
  | Cmp of { table : int; column : int; op : cmp; value : Value.t }
  | Between of { table : int; column : int; lo : Value.t; hi : Value.t }
  | Member of { table : int; column : int; values : Value.t list }

type expr =
  | Col of int * int
  | Const of float
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr

type t = {
  tables : Table.t array;
  names : string array;
  joins : join_cond list;
  predicates : predicate list;
  agg : Wj_stats.Estimator.agg;
  expr : expr;
  group_by : (int * int) option;
}

let k t = Array.length t.tables

let predicate_table = function
  | Cmp { table; _ } | Between { table; _ } | Member { table; _ } -> table

let check_column tables (pos, col) what =
  if pos < 0 || pos >= Array.length tables then
    invalid_arg (Printf.sprintf "Query.make: %s references table %d" what pos);
  if col < 0 || col >= Wj_storage.Schema.arity (Table.schema tables.(pos)) then
    invalid_arg (Printf.sprintf "Query.make: %s references column %d of table %d" what col pos)

let rec check_expr tables = function
  | Col (pos, col) -> check_column tables (pos, col) "expression"
  | Const _ -> ()
  | Neg e -> check_expr tables e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
    check_expr tables a;
    check_expr tables b

let connected ~k ~joins =
  if k = 1 then true
  else begin
    let adj = Array.make k [] in
    List.iter
      (fun { left = l, _; right = r, _; _ } ->
        adj.(l) <- r :: adj.(l);
        adj.(r) <- l :: adj.(r))
      joins;
    let seen = Array.make k false in
    let rec dfs v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter dfs adj.(v)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

let make ~tables ~joins ?(predicates = []) ?(group_by = None) ~agg ~expr () =
  if tables = [] then invalid_arg "Query.make: no tables";
  let names = Array.of_list (List.map fst tables) in
  let tables = Array.of_list (List.map snd tables) in
  List.iter
    (fun cond ->
      check_column tables cond.left "join condition";
      check_column tables cond.right "join condition";
      let (l, _), (r, _) = (cond.left, cond.right) in
      if l = r then invalid_arg "Query.make: join condition within one table";
      match cond.op with
      | Eq -> ()
      | Band { lo; hi } ->
        if lo > hi then invalid_arg "Query.make: band join with lo > hi")
    joins;
  List.iter
    (fun p ->
      match p with
      | Cmp { table; column; _ } | Between { table; column; _ } | Member { table; column; _ }
        -> check_column tables (table, column) "predicate")
    predicates;
  check_expr tables expr;
  (match group_by with
  | None -> ()
  | Some (pos, col) -> check_column tables (pos, col) "group-by");
  if not (connected ~k:(Array.length tables) ~joins) then
    invalid_arg "Query.make: join graph is not connected";
  { tables; names; joins; predicates; agg; expr; group_by }

let rec eval tables path = function
  | Col (pos, col) -> Table.float_cell tables.(pos) path.(pos) col
  | Const f -> f
  | Neg e -> -.eval tables path e
  | Add (a, b) -> eval tables path a +. eval tables path b
  | Sub (a, b) -> eval tables path a -. eval tables path b
  | Mul (a, b) -> eval tables path a *. eval tables path b
  | Div (a, b) -> eval tables path a /. eval tables path b

let eval_expr t path = eval t.tables path t.expr

let group_key t path =
  match t.group_by with
  | None -> invalid_arg "Query.group_key: query has no GROUP BY"
  | Some (pos, col) -> Table.cell t.tables.(pos) path.(pos) col

let predicates_on t pos = List.filter (fun p -> predicate_table p = pos) t.predicates

let sargable_range = function
  | Cmp { column; op; value = Value.Int v; _ } -> (
    match op with
    | Ceq -> Some (column, v, v)
    | Cle -> Some (column, min_int, v)
    | Clt -> Some (column, min_int, v - 1)
    | Cge -> Some (column, v, max_int)
    | Cgt -> Some (column, v + 1, max_int)
    | Cne -> None)
  | Between { column; lo = Value.Int lo; hi = Value.Int hi; _ } -> Some (column, lo, hi)
  | Cmp _ | Between _ | Member _ -> None

let compare_with op c =
  match op with
  | Ceq -> c = 0
  | Cne -> c <> 0
  | Clt -> c < 0
  | Cle -> c <= 0
  | Cgt -> c > 0
  | Cge -> c >= 0

let check_predicate t p row =
  match p with
  | Cmp { table; column; op; value } ->
    let v = Table.cell t.tables.(table) row column in
    compare_with op (Value.compare v value)
  | Between { table; column; lo; hi } ->
    let v = Table.cell t.tables.(table) row column in
    Value.compare v lo >= 0 && Value.compare v hi <= 0
  | Member { table; column; values } ->
    let v = Table.cell t.tables.(table) row column in
    List.exists (Value.equal v) values

let row_passes t pos row =
  List.for_all (fun p -> check_predicate t p row) (predicates_on t pos)

(* ---- Compiled accessors (columnar hot path) ---------------------------

   [compile_*] specialize predicate / join / expression evaluation against
   the tables' typed column cursors once, so a walk step reads ints and
   floats straight out of flat arrays: no [Value.t] is allocated or matched
   per row.  Semantics mirror the boxed shims above exactly, including
   cross-type numeric comparison and NULL ordering. *)

module Bitset = Wj_util.Bitset

(* Row -> Value.compare (cell) value, without constructing the cell. *)
let compile_cell_cmp tbl column value =
  let nulls = Table.null_mask tbl column in
  let null_c = Value.compare Value.Null value in
  let non_null (cmp : int -> int) =
    if Bitset.any nulls then fun row ->
      if Bitset.mem nulls row then null_c else cmp row
    else cmp
  in
  match (Table.cursor tbl column, value) with
  | Table.Int_cursor a, Value.Int v -> non_null (fun row -> Int.compare a.(row) v)
  | Table.Int_cursor a, Value.Float f ->
    non_null (fun row -> Float.compare (float_of_int a.(row)) f)
  | Table.Int_cursor _, Value.Str _ -> non_null (fun _ -> -1)
  | Table.Float_cursor a, Value.Int v ->
    let f = float_of_int v in
    non_null (fun row -> Float.compare a.(row) f)
  | Table.Float_cursor a, Value.Float f -> non_null (fun row -> Float.compare a.(row) f)
  | Table.Float_cursor _, Value.Str _ -> non_null (fun _ -> -1)
  | Table.Str_cursor (ids, pool), Value.Str s ->
    non_null (fun row -> String.compare pool.(ids.(row)) s)
  | Table.Str_cursor _, (Value.Int _ | Value.Float _) -> non_null (fun _ -> 1)
  | Table.Paged_int_cursor get, Value.Int v ->
    non_null (fun row -> Int.compare (get row) v)
  | Table.Paged_int_cursor get, Value.Float f ->
    non_null (fun row -> Float.compare (float_of_int (get row)) f)
  | Table.Paged_int_cursor _, Value.Str _ -> non_null (fun _ -> -1)
  | Table.Paged_float_cursor get, Value.Int v ->
    let f = float_of_int v in
    non_null (fun row -> Float.compare (get row) f)
  | Table.Paged_float_cursor get, Value.Float f ->
    non_null (fun row -> Float.compare (get row) f)
  | Table.Paged_float_cursor _, Value.Str _ -> non_null (fun _ -> -1)
  | Table.Paged_str_cursor (get, pool), Value.Str s ->
    non_null (fun row -> String.compare pool.(get row) s)
  | Table.Paged_str_cursor _, (Value.Int _ | Value.Float _) -> non_null (fun _ -> 1)
  | _, Value.Null -> non_null (fun _ -> 1)

let compile_predicate t p =
  match p with
  | Cmp { table; column; op; value = Value.Str s }
    when op = Ceq
         && (match Table.cursor t.tables.(table) column with
            | Table.Str_cursor _ | Table.Paged_str_cursor _ -> true
            | _ -> false) -> (
    (* Dictionary fast path: string equality is one id compare (paged
       columns share the dictionary semantics, so the same id works). *)
    let tbl = t.tables.(table) in
    match Table.dict_id tbl ~col:column s with
    | None -> fun _ -> false
    | Some id ->
      let nulls = Table.null_mask tbl column in
      let id_at =
        match Table.cursor tbl column with
        | Table.Str_cursor (ids, _) -> fun row -> ids.(row)
        | Table.Paged_str_cursor (get, _) -> get
        | _ -> assert false
      in
      if Bitset.any nulls then fun row ->
        (not (Bitset.mem nulls row)) && id_at row = id
      else fun row -> id_at row = id)
  | Cmp { table; column; op; value } ->
    let cmp = compile_cell_cmp t.tables.(table) column value in
    (match op with
    | Ceq -> fun row -> cmp row = 0
    | Cne -> fun row -> cmp row <> 0
    | Clt -> fun row -> cmp row < 0
    | Cle -> fun row -> cmp row <= 0
    | Cgt -> fun row -> cmp row > 0
    | Cge -> fun row -> cmp row >= 0)
  | Between { table; column; lo; hi } ->
    let cmp_lo = compile_cell_cmp t.tables.(table) column lo in
    let cmp_hi = compile_cell_cmp t.tables.(table) column hi in
    fun row -> cmp_lo row >= 0 && cmp_hi row <= 0
  | Member { table; column; values } -> (
    let tbl = t.tables.(table) in
    let nulls = Table.null_mask tbl column in
    let null_hit = List.mem Value.Null values in
    let non_null (hit : int -> bool) row =
      if Bitset.mem nulls row then null_hit else hit row
    in
    match Table.cursor tbl column with
    | Table.Int_cursor a ->
      non_null (fun row ->
          let x = a.(row) in
          List.exists
            (function
              | Value.Int y -> x = y
              | Value.Float y -> Float.equal (float_of_int x) y
              | Value.Str _ | Value.Null -> false)
            values)
    | Table.Float_cursor a ->
      non_null (fun row ->
          let x = a.(row) in
          List.exists
            (function
              | Value.Float y -> Float.equal x y
              | Value.Int y -> Float.equal x (float_of_int y)
              | Value.Str _ | Value.Null -> false)
            values)
    | Table.Str_cursor (ids, pool) ->
      non_null (fun row ->
          let x = pool.(ids.(row)) in
          List.exists
            (function
              | Value.Str y -> String.equal x y
              | Value.Int _ | Value.Float _ | Value.Null -> false)
            values)
    | Table.Paged_int_cursor get ->
      non_null (fun row ->
          let x = get row in
          List.exists
            (function
              | Value.Int y -> x = y
              | Value.Float y -> Float.equal (float_of_int x) y
              | Value.Str _ | Value.Null -> false)
            values)
    | Table.Paged_float_cursor get ->
      non_null (fun row ->
          let x = get row in
          List.exists
            (function
              | Value.Float y -> Float.equal x y
              | Value.Int y -> Float.equal x (float_of_int y)
              | Value.Str _ | Value.Null -> false)
            values)
    | Table.Paged_str_cursor (get, pool) ->
      non_null (fun row ->
          let x = pool.(get row) in
          List.exists
            (function
              | Value.Str y -> String.equal x y
              | Value.Int _ | Value.Float _ | Value.Null -> false)
            values))

let compile_predicates t pos = Array.of_list (List.map (compile_predicate t) (predicates_on t pos))

let compile_join t cond =
  let (lp, lc), (rp, rc) = (cond.left, cond.right) in
  let lread = Table.int_reader t.tables.(lp) lc in
  let rread = Table.int_reader t.tables.(rp) rc in
  match cond.op with
  | Eq -> fun path -> lread path.(lp) = rread path.(rp)
  | Band { lo; hi } ->
    fun path ->
      let d = rread path.(rp) - lread path.(lp) in
      d >= lo && d <= hi

let rec compile_eval tables = function
  | Col (pos, col) ->
    let read = Table.float_reader tables.(pos) col in
    fun path -> read path.(pos)
  | Const f -> fun _ -> f
  | Neg e ->
    let f = compile_eval tables e in
    fun path -> -.f path
  | Add (a, b) ->
    let fa = compile_eval tables a and fb = compile_eval tables b in
    fun path -> fa path +. fb path
  | Sub (a, b) ->
    let fa = compile_eval tables a and fb = compile_eval tables b in
    fun path -> fa path -. fb path
  | Mul (a, b) ->
    let fa = compile_eval tables a and fb = compile_eval tables b in
    fun path -> fa path *. fb path
  | Div (a, b) ->
    let fa = compile_eval tables a and fb = compile_eval tables b in
    fun path -> fa path /. fb path

let compile_expr t = compile_eval t.tables t.expr

let int_key_reader t ~pos ~col = Table.int_reader t.tables.(pos) col

let check_join t cond path =
  let (lp, lc), (rp, rc) = (cond.left, cond.right) in
  let lv = Table.int_cell t.tables.(lp) path.(lp) lc in
  let rv = Table.int_cell t.tables.(rp) path.(rp) rc in
  match cond.op with
  | Eq -> lv = rv
  | Band { lo; hi } -> rv - lv >= lo && rv - lv <= hi

let join_key_range cond ~from_left v =
  match cond.op with
  | Eq -> (v, v)
  | Band { lo; hi } -> if from_left then (v + lo, v + hi) else (v - hi, v - lo)

(* The left side is bound to [v]: the right side's keys lie in
   [v + lo, v + hi], written without the pair so a walk step allocates
   nothing. *)
let locate_join cond located v =
  match cond.op with
  | Eq -> Wj_index.Index.locate_eq located v
  | Band { lo; hi } -> Wj_index.Index.locate_range located ~lo:(v + lo) ~hi:(v + hi)

let flip cond =
  let op =
    match cond.op with Eq -> Eq | Band { lo; hi } -> Band { lo = -hi; hi = -lo }
  in
  { left = cond.right; right = cond.left; op }

let cmp_to_string = function
  | Ceq -> "="
  | Cne -> "<>"
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let selectivity_filter_sql t =
  let col_name pos col = (Wj_storage.Schema.column (Table.schema t.tables.(pos)) col).name in
  let pred_str = function
    | Cmp { table; column; op; value } ->
      Printf.sprintf "%s.%s %s %s" t.names.(table) (col_name table column)
        (cmp_to_string op) (Value.to_display value)
    | Between { table; column; lo; hi } ->
      Printf.sprintf "%s.%s BETWEEN %s AND %s" t.names.(table) (col_name table column)
        (Value.to_display lo) (Value.to_display hi)
    | Member { table; column; values } ->
      Printf.sprintf "%s.%s IN (%s)" t.names.(table) (col_name table column)
        (String.concat ", " (List.map Value.to_display values))
  in
  String.concat " AND " (List.map pred_str t.predicates)
