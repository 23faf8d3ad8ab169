(* Sorted column-oriented trie (Leapfrog Triejoin's index shape).

   The trie over key columns (c0, .., cm) of a table is materialised as the
   row ids sorted lexicographically by (c0, .., cm, row), plus one flat key
   array per level.  A "node" at level l is then a contiguous slot range
   [lo, hi) whose level-l keys are sorted, so every trie operation — seek,
   next distinct key, child range — is a binary search confined to the
   node.  Nothing is pointer-shaped: the whole structure is m+2 int
   arrays, and narrowing never allocates. *)

module Table = Wj_storage.Table

type t = {
  columns : int array;
  rows : int array; (* row ids, sorted lexicographically by key tuple *)
  keys : int array array; (* keys.(l).(s) = level-l key of sorted slot s *)
  mutable probes : int;
}

let levels t = Array.length t.columns
let length t = Array.length t.rows
let row t slot = t.rows.(slot)
let rows t = t.rows
let probes t = t.probes

(* Compare two row positions by their keys at levels [l..]: 0 on a tie,
   which [Array.stable_sort] breaks by position, i.e. by row id. *)
let rec compare_keys cols l i j =
  if l = Array.length cols then 0
  else begin
    let a = Array.unsafe_get cols l in
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get a j) in
    if c <> 0 then c else compare_keys cols (l + 1) i j
  end

let build_filtered ?keep table ~columns =
  if columns = [||] then invalid_arg "Trie.build: no key columns";
  let n = Table.length table in
  let kept =
    match keep with
    | None -> Array.init n Fun.id
    | Some f ->
      let acc = ref [] in
      for r = n - 1 downto 0 do
        if f r then acc := r :: !acc
      done;
      Array.of_list !acc
  in
  (* Read each key column once, in row order, then sort positions against
     those arrays: no reader call (or page fetch) per comparison. *)
  let cols = Array.map (fun c -> Array.map (Table.int_reader table c) kept) columns in
  let perm = Array.init (Array.length kept) Fun.id in
  Array.stable_sort (compare_keys cols 0) perm;
  let rows = Array.map (fun p -> kept.(p)) perm in
  let keys = Array.map (fun a -> Array.map (fun p -> a.(p)) perm) cols in
  { columns = Array.copy columns; rows; keys; probes = 0 }

let build table ~columns = build_filtered table ~columns

(* First slot in [lo, hi) whose level key is >= k.  Only meaningful when
   the range is (a union of sibling runs of) one node, i.e. its level keys
   are sorted. *)
let lower_bound t ~level ~lo ~hi k =
  let a = t.keys.(level) in
  let l = ref lo and r = ref hi in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if a.(mid) < k then l := mid + 1 else r := mid
  done;
  !l

let upper_bound t ~level ~lo ~hi k =
  let a = t.keys.(level) in
  let l = ref lo and r = ref hi in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if a.(mid) <= k then l := mid + 1 else r := mid
  done;
  !l

let narrow_start t ~level ~lo ~hi klo =
  t.probes <- t.probes + 1;
  lower_bound t ~level ~lo ~hi klo

(* ---- Distinct-key cursor ---------------------------------------------- *)

type cursor = {
  trie : t;
  level : int;
  node_hi : int;
  mutable pos : int; (* start slot of the current key's run; >= node_hi at end *)
}

let cursor t ~level ~lo ~hi =
  if level < 0 || level >= levels t then invalid_arg "Trie.cursor: bad level";
  { trie = t; level; node_hi = hi; pos = lo }

let at_end c = c.pos >= c.node_hi
let key c = c.trie.keys.(c.level).(c.pos)

let child c =
  let k = key c in
  (c.pos, upper_bound c.trie ~level:c.level ~lo:c.pos ~hi:c.node_hi k)

let next c =
  c.trie.probes <- c.trie.probes + 1;
  let k = key c in
  c.pos <- upper_bound c.trie ~level:c.level ~lo:c.pos ~hi:c.node_hi k

let seek c k =
  c.trie.probes <- c.trie.probes + 1;
  if (not (at_end c)) && key c < k then
    c.pos <- lower_bound c.trie ~level:c.level ~lo:c.pos ~hi:c.node_hi k

(* ---- Level-0 single-column index operations --------------------------- *)

(* Each narrows the root once: the first slot with key >= klo, counted as
   the probe, then the end of the run of keys <= khi from there. *)

let count_range t ~lo:klo ~hi:khi =
  let n = length t in
  let lo = narrow_start t ~level:0 ~lo:0 ~hi:n klo in
  upper_bound t ~level:0 ~lo ~hi:n khi - lo

let count_eq t k = count_range t ~lo:k ~hi:k

let nth_range t ~lo:klo ~hi:khi i =
  let n = length t in
  let lo = narrow_start t ~level:0 ~lo:0 ~hi:n klo in
  if i < 0 || lo + i >= upper_bound t ~level:0 ~lo ~hi:n khi then
    invalid_arg "Trie.nth_range: out of range";
  t.rows.(lo + i)

let nth_eq t k i = nth_range t ~lo:k ~hi:k i
