module Index = Wj_index.Index
module Table = Wj_storage.Table

(* Every index built over one catalog's tables, keyed by base-table name
   and key columns.  [mu] guards the table and each build: sessions
   on different domains reach one store through [ensure_trie]. *)
type store = {
  mu : Mutex.t;
  built : (string * int list, Index.t) Hashtbl.t;
}

type t = {
  store : store;
  slots : (int * int, Index.t) Hashtbl.t;
  tries : (int * int list, Index.t) Hashtbl.t; (* (pos, key columns) *)
}

let create_store () = { mu = Mutex.create (); built = Hashtbl.create 32 }
let view store = { store; slots = Hashtbl.create 32; tries = Hashtbl.create 8 }
let create () = view (create_store ())
let store t = t.store
let add t ~pos ~column index = Hashtbl.replace t.slots (pos, column) index
let find t ~pos ~column = Hashtbl.find_opt t.slots (pos, column)

(* The store's index over [columns] of [table], built on first request. *)
let obtain store table columns =
  Mutex.protect store.mu (fun () ->
      let key = (Table.name table, columns) in
      match Hashtbl.find_opt store.built key with
      | Some idx -> idx
      | None ->
        let idx = Index.build_trie table ~columns in
        Hashtbl.replace store.built key idx;
        idx)

let build_for_query ?(store = create_store ()) q =
  let t = view store in
  let ensure pos column = add t ~pos ~column (obtain store q.Query.tables.(pos) [ column ]) in
  List.iter
    (fun (cond : Query.join_cond) ->
      let lp, lc = cond.left and rp, rc = cond.right in
      ensure lp lc;
      ensure rp rc)
    q.Query.joins;
  List.iter
    (fun p ->
      let pos, column =
        match p with
        | Query.Cmp { table; column; _ }
        | Query.Between { table; column; _ }
        | Query.Member { table; column; _ } -> (table, column)
      in
      (* Only integer columns can be indexed; skip string predicates. *)
      let schema = Table.schema q.Query.tables.(pos) in
      match Wj_storage.Schema.ty_of schema column with
      | Wj_storage.Value.TInt -> ensure pos column
      | TFloat | TStr -> ())
    q.Query.predicates;
  t

let ensure_trie t table ~pos ~columns =
  let idx = obtain t.store table columns in
  Hashtbl.replace t.tries (pos, columns) idx;
  idx

let iter t f = Hashtbl.iter (fun (pos, column) idx -> f ~pos ~column idx) t.slots

let export_metrics t m =
  iter t (fun ~pos ~column idx ->
      Wj_obs.Gauge.set
        (Wj_obs.Metrics.gauge m (Printf.sprintf "index.pos%d.col%d.probes" pos column))
        (float_of_int (Index.probes idx)));
  Hashtbl.iter
    (fun (pos, columns) idx ->
      let cols = String.concat "_" (List.map string_of_int columns) in
      Wj_obs.Gauge.set
        (Wj_obs.Metrics.gauge m (Printf.sprintf "index.pos%d.trie%s.probes" pos cols))
        (float_of_int (Index.probes idx)))
    t.tries

let entries = Wj_index.Trie.length

(* Slots count once per position; a trie counts once however many
   positions alias its base table. *)
let total_entries t =
  let tries =
    Hashtbl.fold (fun _ idx acc -> if List.memq idx acc then acc else idx :: acc) t.tries []
  in
  Hashtbl.fold (fun _ idx acc -> acc + entries idx) t.slots 0
  + List.fold_left (fun acc idx -> acc + entries idx) 0 tries
