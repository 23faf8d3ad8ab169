type t = Trie.t

let build_trie table ~columns =
  match columns with
  | [] -> invalid_arg "Index.build_trie: no key columns"
  | _ -> Trie.build table ~columns:(Array.of_list columns)

(* ---- Located probes: locate once, then select -------------------------- *)

(* The located rows are [span.(lo) .. span.(lo + count - 1)]. *)
type located = {
  trie : Trie.t;
  span : int array; (* the trie's rows *)
  mutable lo : int;
  mutable count : int;
}

let locator t = { trie = t; span = Trie.rows t; lo = 0; count = 0 }

(* Restrict the span to the rows whose level-[level] key lies in [lo, hi]:
   the first slot with key >= lo (the one counted probe), then the end of
   the run of keys <= hi from there. *)
let narrow l ~level ~lo ~hi =
  let top = l.lo + l.count in
  let slo = Trie.narrow_start l.trie ~level ~lo:l.lo ~hi:top lo in
  l.lo <- slo;
  l.count <- Trie.upper_bound l.trie ~level ~lo:slo ~hi:top hi - slo

(* One level-0 narrow from the trie's root. *)
let locate_range l ~lo ~hi =
  l.lo <- 0;
  l.count <- Trie.length l.trie;
  narrow l ~level:0 ~lo ~hi

let locate_eq l key =
  let r = Trie.find l.trie key in
  if r < 0 then l.count <- 0
  else begin
    let lo = Trie.run_start l.trie r in
    l.lo <- lo;
    l.count <- Trie.run_start l.trie (r + 1) - lo
  end

let located_count l = l.count

let located_nth l k =
  if k < 0 || k >= l.count then invalid_arg "Index.located_nth: out of range";
  Array.unsafe_get l.span (l.lo + k)

(* ---- One-shot lookups ------------------------------------------------- *)

let count_eq t key =
  let l = locator t in
  locate_eq l key;
  l.count

let nth_eq t key k =
  let l = locator t in
  locate_eq l key;
  located_nth l k

let count_range t ~lo ~hi =
  let l = locator t in
  locate_range l ~lo ~hi;
  l.count

let nth_range t ~lo ~hi k =
  let l = locator t in
  locate_range l ~lo ~hi;
  located_nth l k

(* ---- Cost and accounting ---------------------------------------------- *)

(* Top level, not a closure over [n]: a step's cost lookup allocates
   nothing. *)
let rec log2_from n bits cap = if cap >= n then bits else log2_from n (bits + 1) (cap * 2)
let ceil_log2 n = if n <= 2 then 1 else log2_from n 1 2

(* A directory lookup for one-column equality; otherwise one binary
   search per key column. *)
let count_cost t ~range =
  if (not range) && Trie.levels t = 1 then 1 else Trie.levels t * ceil_log2 (Trie.length t)

let probes = Trie.probes
