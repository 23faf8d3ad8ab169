(* Raw slot reads through the column cursors the walker compiles: an int
   (or dictionary-id) slot, a float slot, a string column's dictionary,
   and the null bit.  Shared by the columnar and paged round-trip tests. *)

module Table = Wj_storage.Table

let ints_of t c =
  match Table.cursor t c with
  | Table.Int_cursor a | Table.Str_cursor (a, _) -> fun i -> a.(i)
  | Table.Paged_int_cursor f | Table.Paged_str_cursor (f, _) -> f
  | Table.Float_cursor _ | Table.Paged_float_cursor _ -> invalid_arg "ints_of"

let floats_of t c =
  match Table.cursor t c with
  | Table.Float_cursor a -> fun i -> a.(i)
  | Table.Paged_float_cursor f -> f
  | _ -> invalid_arg "floats_of"

let dict_of t c =
  match Table.cursor t c with
  | Table.Str_cursor (_, d) | Table.Paged_str_cursor (_, d) -> d
  | _ -> invalid_arg "dict_of"

let is_null t row c = Wj_util.Bitset.mem (Table.null_mask t c) row
