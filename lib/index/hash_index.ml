module Vec = Wj_util.Vec
module Table = Wj_storage.Table
module Value = Wj_storage.Value

type t = {
  column : int;
  buckets : (int, int Vec.t) Hashtbl.t;
  mutable entries : int;
  mutable probes : int; (* query lookups served since build/reset *)
}

let create_empty ~column =
  { column; buckets = Hashtbl.create 1024; entries = 0; probes = 0 }

let insert t ~key ~row =
  (match Hashtbl.find_opt t.buckets key with
  | Some rows -> Vec.push rows row
  | None ->
    let rows = Vec.create ~capacity:4 () in
    Vec.push rows row;
    Hashtbl.add t.buckets key rows);
  t.entries <- t.entries + 1

let build table ~column =
  let t = create_empty ~column in
  (* Typed column read: no Value.t is materialized during the build. *)
  let key = Table.int_reader table column in
  for row = 0 to Table.length table - 1 do
    insert t ~key:(key row) ~row
  done;
  t

let table_column t = t.column

let count t key =
  t.probes <- t.probes + 1;
  match Hashtbl.find_opt t.buckets key with None -> 0 | Some rows -> Vec.length rows

let find t key =
  t.probes <- t.probes + 1;
  Hashtbl.find_opt t.buckets key

let nth t key k =
  t.probes <- t.probes + 1;
  match Hashtbl.find_opt t.buckets key with
  | None -> invalid_arg "Hash_index.nth: absent key"
  | Some rows -> Vec.get rows k

let iter_key t key f =
  t.probes <- t.probes + 1;
  match Hashtbl.find_opt t.buckets key with
  | None -> ()
  | Some rows -> Vec.iter f rows

let probes t = t.probes
let reset_probes t = t.probes <- 0

let distinct_keys t = Hashtbl.length t.buckets
let total_entries t = t.entries
