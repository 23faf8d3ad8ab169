type kind =
  | Hash of Hash_index.t
  | Ordered of Btree.t
  | Trie of Trie.t

type t = { kind : kind; column : int }

let build_hash table ~column = { kind = Hash (Hash_index.build table ~column); column }
let build_ordered table ~column = { kind = Ordered (Btree.of_table table ~column); column }

let build_trie table ~columns =
  match columns with
  | [] -> invalid_arg "Index.build_trie: no key columns"
  | column :: _ ->
    { kind = Trie (Trie.build table ~columns:(Array.of_list columns)); column }

let as_trie t = match t.kind with Trie tr -> Some tr | Hash _ | Ordered _ -> None

let count_eq t key =
  match t.kind with
  | Hash h -> Hash_index.count h key
  | Ordered b -> Btree.count_eq b key
  | Trie tr -> Trie.count_eq tr key

let nth_eq t key k =
  match t.kind with
  | Hash h -> Hash_index.nth h key k
  | Ordered b -> (
    match Btree.nth_in_range b ~lo:key ~hi:key k with
    | Some (_, row) -> row
    | None -> invalid_arg "Index.nth_eq: out of range")
  | Trie tr -> Trie.nth_eq tr key k

let count_range t ~lo ~hi =
  match t.kind with
  | Hash _ -> invalid_arg "Index.count_range: hash index cannot answer ranges"
  | Ordered b -> Btree.count_range b ~lo ~hi
  | Trie tr -> Trie.count_range tr ~lo ~hi

let nth_range t ~lo ~hi k =
  match t.kind with
  | Hash _ -> invalid_arg "Index.nth_range: hash index cannot answer ranges"
  | Ordered b -> (
    match Btree.nth_in_range b ~lo ~hi k with
    | Some (_, row) -> row
    | None -> invalid_arg "Index.nth_range: out of range")
  | Trie tr -> Trie.nth_range tr ~lo ~hi k

let iter_eq t key f =
  match t.kind with
  | Hash h -> Hash_index.iter_key h key f
  | Ordered b -> Btree.iter_range b ~lo:key ~hi:key (fun _ row -> f row)
  | Trie tr -> Trie.iter_eq tr key f

let iter_range t ~lo ~hi f =
  match t.kind with
  | Hash _ -> invalid_arg "Index.iter_range: hash index cannot answer ranges"
  | Ordered b -> Btree.iter_range b ~lo ~hi (fun _ row -> f row)
  | Trie tr -> Trie.iter_range tr ~lo ~hi f

let supports_range t =
  match t.kind with Hash _ -> false | Ordered _ | Trie _ -> true

(* ---- Ordered distinct-key cursor -------------------------------------- *)

type cursor =
  | Btree_cursor of { b : Btree.t; mutable rank : int }
  | Trie_cursor of Trie.cursor

let cursor t =
  match t.kind with
  | Hash _ -> None
  | Ordered b -> Some (Btree_cursor { b; rank = 0 })
  | Trie tr ->
    let lo, hi = Trie.root tr in
    Some (Trie_cursor (Trie.cursor tr ~level:0 ~lo ~hi))

let cursor_at_end = function
  | Btree_cursor c -> c.rank >= Btree.length c.b
  | Trie_cursor c -> Trie.at_end c

let cursor_key = function
  | Btree_cursor c -> fst (Btree.nth c.b c.rank)
  | Trie_cursor c -> Trie.key c

let cursor_count cur =
  match cur with
  | Btree_cursor c -> Btree.count_eq c.b (cursor_key cur)
  | Trie_cursor c ->
    let lo, hi = Trie.child c in
    hi - lo

let cursor_next cur =
  match cur with
  | Btree_cursor c -> c.rank <- c.rank + Btree.count_eq c.b (cursor_key cur)
  | Trie_cursor c -> Trie.next c

let cursor_seek cur k =
  match cur with
  | Btree_cursor c -> c.rank <- max c.rank (Btree.rank_lt c.b k)
  | Trie_cursor c -> Trie.seek c k

(* ---- Located probes: locate once, then select -------------------------- *)

type located =
  | L_empty
  | L_bucket of int Wj_util.Vec.t
  | L_ranked of { b : Btree.t; base : int; count : int }
  | L_slots of { tr : Trie.t; lo : int; count : int }

(* Two rank descents: the base rank and the count fall out of the same
   pair ([rank_le hi - rank_lt lo]), so a located ordered probe is exactly
   the [2 x height] that [count_cost] charges. *)
let locate_ranked b ~lo ~hi =
  if lo > hi then L_empty
  else begin
    let base = Btree.rank_lt b lo in
    let count = Btree.rank_le b hi - base in
    if count = 0 then L_empty else L_ranked { b; base; count }
  end

let locate_eq t key =
  match t.kind with
  | Hash h -> (
    match Hash_index.find h key with
    | None -> L_empty
    | Some rows -> L_bucket rows)
  | Ordered b -> locate_ranked b ~lo:key ~hi:key
  | Trie tr ->
    let rlo, rhi = Trie.root tr in
    let lo, hi = Trie.narrow tr ~level:0 ~lo:rlo ~hi:rhi ~klo:key ~khi:key in
    if hi <= lo then L_empty else L_slots { tr; lo; count = hi - lo }

let locate_range t ~lo ~hi =
  match t.kind with
  | Hash _ -> invalid_arg "Index.locate_range: hash index cannot answer ranges"
  | Ordered b -> locate_ranked b ~lo ~hi
  | Trie tr ->
    let rlo, rhi = Trie.root tr in
    let slo, shi = Trie.narrow tr ~level:0 ~lo:rlo ~hi:rhi ~klo:lo ~khi:hi in
    if shi <= slo then L_empty
    else L_slots { tr; lo = slo; count = shi - slo }

let located_count = function
  | L_empty -> 0
  | L_bucket rows -> Wj_util.Vec.length rows
  | L_ranked { count; _ } -> count
  | L_slots { count; _ } -> count

let located_nth l k =
  match l with
  | L_empty -> invalid_arg "Index.located_nth: empty probe"
  | L_bucket rows -> Wj_util.Vec.get rows k
  | L_ranked { b; base; count } ->
    if k < 0 || k >= count then invalid_arg "Index.located_nth: out of range";
    snd (Btree.nth b (base + k))
  | L_slots { tr; lo; count } ->
    if k < 0 || k >= count then invalid_arg "Index.located_nth: out of range";
    Trie.row tr (lo + k)

(* ---- Cost and accounting ---------------------------------------------- *)

let ceil_log2 n =
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  if n <= 2 then 1 else go 1 2

let probe_cost t =
  match t.kind with
  | Hash _ -> 1
  | Ordered b -> Btree.height b
  | Trie tr -> Trie.levels tr * ceil_log2 (Trie.length tr)

let count_cost t =
  match t.kind with
  | Hash _ -> 1
  (* A counted range lookup is two root-to-leaf rank descents
     (rank_le - rank_lt), not the single flat descent probe_cost names. *)
  | Ordered b -> 2 * Btree.height b
  (* One binary search per key column. *)
  | Trie tr -> Trie.levels tr * ceil_log2 (Trie.length tr)

(* The marginal cost of selecting the k-th row out of an already-located
   probe: a located hash bucket or trie slot range selects with a plain
   array read (0); a counted B+-tree still needs its select descent
   ([height]). *)
let resolve_cost t =
  match t.kind with Hash _ -> 0 | Ordered b -> Btree.height b | Trie _ -> 0

let probes t =
  match t.kind with
  | Hash h -> Hash_index.probes h
  | Ordered b -> Btree.probes b
  | Trie tr -> Trie.probes tr

let reset_probes t =
  match t.kind with
  | Hash h -> Hash_index.reset_probes h
  | Ordered b -> Btree.reset_probes b
  | Trie tr -> Trie.reset_probes tr
