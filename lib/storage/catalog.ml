type t = { tables : (string, Table.t) Hashtbl.t; mutable epoch : int }

let create () = { tables = Hashtbl.create 16; epoch = 0 }

let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1

let add_table t table =
  let name = Table.name table in
  if Hashtbl.mem t.tables name then
    invalid_arg ("Catalog.add_table: duplicate table " ^ name);
  Hashtbl.add t.tables name table

let table t name = Hashtbl.find_opt t.tables name

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

let map_tables t f =
  let mapped = create () in
  Hashtbl.iter (fun name tbl -> Hashtbl.replace mapped.tables name (f tbl)) t.tables;
  mapped.epoch <- t.epoch;
  mapped
