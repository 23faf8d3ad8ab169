type kind =
  | Hash of Hash_index.t
  | Trie of Trie.t

type t = { kind : kind; column : int }

let build_hash table ~column = { kind = Hash (Hash_index.build table ~column); column }

let build_trie table ~columns =
  match columns with
  | [] -> invalid_arg "Index.build_trie: no key columns"
  | column :: _ ->
    { kind = Trie (Trie.build table ~columns:(Array.of_list columns)); column }

let as_trie t = match t.kind with Trie tr -> Some tr | Hash _ -> None

let count_eq t key =
  match t.kind with
  | Hash h -> Hash_index.count h key
  | Trie tr -> Trie.count_eq tr key

let nth_eq t key k =
  match t.kind with
  | Hash h -> Hash_index.nth h key k
  | Trie tr -> Trie.nth_eq tr key k

let count_range t ~lo ~hi =
  match t.kind with
  | Hash _ -> invalid_arg "Index.count_range: hash index cannot answer ranges"
  | Trie tr -> Trie.count_range tr ~lo ~hi

let nth_range t ~lo ~hi k =
  match t.kind with
  | Hash _ -> invalid_arg "Index.nth_range: hash index cannot answer ranges"
  | Trie tr -> Trie.nth_range tr ~lo ~hi k

let supports_range t = match t.kind with Hash _ -> false | Trie _ -> true

(* ---- Located probes: locate once, then select -------------------------- *)

(* A hash group and a trie slot range are one shape: the located rows are
   [span.(lo) .. span.(lo + count - 1)]. *)
type located = {
  src : kind;
  span : int array; (* the hash index's or trie's rows *)
  mutable lo : int;
  mutable count : int;
}

let locator t =
  let span = match t.kind with Hash h -> Hash_index.rows h | Trie tr -> Trie.rows tr in
  { src = t.kind; span; lo = 0; count = 0 }

(* Restrict the span to the rows whose level-[level] key lies in [lo, hi]:
   the first slot with key >= lo (the one counted probe), then the end of
   the run of keys <= hi from there. *)
let narrow l ~level ~lo ~hi =
  match l.src with
  | Trie tr ->
    let top = l.lo + l.count in
    let slo = Trie.narrow_start tr ~level ~lo:l.lo ~hi:top lo in
    l.lo <- slo;
    l.count <- Trie.upper_bound tr ~level ~lo:slo ~hi:top hi - slo
  | Hash _ -> invalid_arg "Index.narrow: a hash span has no key levels"

(* One level-0 narrow from the trie's root. *)
let locate_range l ~lo ~hi =
  match l.src with
  | Trie tr ->
    l.lo <- 0;
    l.count <- Trie.length tr;
    narrow l ~level:0 ~lo ~hi
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
  | Trie _ -> locate_range l ~lo:key ~hi:key

let located_count l = l.count

let located_nth l k =
  if k < 0 || k >= l.count then invalid_arg "Index.located_nth: out of range";
  Array.unsafe_get l.span (l.lo + k)

(* ---- Cost and accounting ---------------------------------------------- *)

(* Top level, not a closure over [n]: a step's cost lookup allocates
   nothing. *)
let rec log2_from n bits cap = if cap >= n then bits else log2_from n (bits + 1) (cap * 2)
let ceil_log2 n = if n <= 2 then 1 else log2_from n 1 2

(* One binary search per key column. *)
let count_cost t =
  match t.kind with
  | Hash _ -> 1
  | Trie tr -> Trie.levels tr * ceil_log2 (Trie.length tr)

let probes t =
  match t.kind with
  | Hash h -> Hash_index.probes h
  | Trie tr -> Trie.probes tr
