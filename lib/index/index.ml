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
    try Btree.nth_in_range b ~lo:key ~hi:key k
    with Invalid_argument _ -> invalid_arg "Index.nth_eq: out of range")
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
    try Btree.nth_in_range b ~lo ~hi k
    with Invalid_argument _ -> invalid_arg "Index.nth_range: out of range")
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

(* ---- Located probes: locate once, then select -------------------------- *)

(* A hash group and a trie slot range are one shape: the located rows are
   [span.(lo) .. span.(lo + count - 1)].  A B+-tree has no row array, so
   its [lo] is the base rank and a select descends from the root. *)
type located = {
  src : kind;
  span : int array; (* the hash index's or trie's rows; [||] for a B+-tree *)
  mutable lo : int;
  mutable count : int;
}

let locator t =
  let span =
    match t.kind with
    | Hash h -> Hash_index.rows h
    | Trie tr -> Trie.rows tr
    | Ordered _ -> [||]
  in
  { src = t.kind; span; lo = 0; count = 0 }

(* One level-0 narrow from the trie's root, or two rank descents: the base
   rank and the count fall out of the same pair ([rank_le hi - rank_lt
   lo]), so a located ordered probe is exactly the [2 x height] that
   [count_cost] charges. *)
let locate_range l ~lo ~hi =
  match l.src with
  | Ordered b ->
    if lo > hi then l.count <- 0
    else begin
      let base = Btree.rank_lt b lo in
      l.lo <- base;
      l.count <- Btree.rank_le b hi - base
    end
  | Trie tr ->
    let n = Trie.length tr in
    let slo = Trie.narrow_start tr ~level:0 ~lo:0 ~hi:n lo in
    l.lo <- slo;
    l.count <- Trie.upper_bound tr ~level:0 ~lo:slo ~hi:n hi - slo
  | Hash _ -> invalid_arg "Index.locate_range: hash index cannot answer ranges"

let locate_eq l key =
  match l.src with
  | Hash h ->
    let g = Hash_index.group h key in
    if g < 0 then l.count <- 0
    else begin
      let lo = Hash_index.offset h g in
      l.lo <- lo;
      l.count <- Hash_index.offset h (g + 1) - lo
    end
  | Ordered _ | Trie _ -> locate_range l ~lo:key ~hi:key

let located_count l = l.count

let located_nth l k =
  if k < 0 || k >= l.count then invalid_arg "Index.located_nth: out of range";
  match l.src with
  | Ordered b -> Btree.nth_value b (l.lo + k)
  | Hash _ | Trie _ -> Array.unsafe_get l.span (l.lo + k)

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
   probe: a located hash group or trie slot range selects with one span
   read (0); a counted B+-tree still needs its select descent
   ([height]). *)
let resolve_cost t =
  match t.kind with Hash _ -> 0 | Ordered b -> Btree.height b | Trie _ -> 0

let probes t =
  match t.kind with
  | Hash h -> Hash_index.probes h
  | Ordered b -> Btree.probes b
  | Trie tr -> Trie.probes tr
