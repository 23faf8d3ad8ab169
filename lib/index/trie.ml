(* Sorted column-oriented trie: the one physical index.

   The trie over key columns (c0, .., cm) of a table is materialised as the
   row ids sorted lexicographically by (c0, .., cm, row).  Level 0 is CSR:
   the d distinct c0 keys ascending, d + 1 offsets into the slots, and an
   open-addressing directory from key to rank, so an equality lookup reads
   one directory slot (rarely a few) and two adjacent offsets.  Each deeper
   level is one flat key array over the slots.  A "node" at level l is a
   contiguous slot range [lo, hi) whose level-l keys are sorted, so every
   trie operation — seek, next distinct key, child range — is a search
   confined to the node.  Nothing is pointer-shaped, and narrowing never
   allocates. *)

module Table = Wj_storage.Table

type t = {
  levels : int; (* key columns *)
  rows : int array; (* row ids, sorted lexicographically by key tuple *)
  keys0 : int array; (* the distinct level-0 keys, ascending *)
  offsets : int array; (* rank r's run is slots offsets.(r) .. offsets.(r + 1) - 1 *)
  dir : int array;
      (* slot s holds a key at dir.(2s) and its rank at dir.(2s + 1), or -1
         there when the slot is empty; linear probing, at most half full *)
  shift : int; (* 63 - log2 (directory slots) *)
  mask : int; (* directory slots - 1 *)
  deep : int array array; (* deep.(l - 1).(s) = level-l key of slot s, l >= 1 *)
  mutable probes : int;
}

let levels t = t.levels
let length t = Array.length t.rows
let row t slot = t.rows.(slot)
let rows t = t.rows
let probes t = t.probes

(* ---- The level-0 directory -------------------------------------------- *)

(* Fibonacci hashing: the top bits of the key times 2^63 / golden ratio. *)
let[@inline] home ~shift key = (key * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [key], or the empty slot where it would go. *)
let[@inline] find_slot dir ~shift ~mask key =
  let s = ref (home ~shift key) in
  while
    Array.unsafe_get dir ((2 * !s) + 1) >= 0 && Array.unsafe_get dir (2 * !s) <> key
  do
    s := (!s + 1) land mask
  done;
  !s

let empty_dir bits = Array.make (2 lsl bits) (-1)

(* [old]'s entries in a fresh directory of [2^bits] slots. *)
let rehash old bits =
  let d = empty_dir bits in
  let shift = 63 - bits and mask = (1 lsl bits) - 1 in
  for s = 0 to (Array.length old / 2) - 1 do
    let v = old.((2 * s) + 1) in
    if v >= 0 then begin
      let k = old.(2 * s) in
      let s' = find_slot d ~shift ~mask k in
      d.(2 * s') <- k;
      d.((2 * s') + 1) <- v
    end
  done;
  d

let find t key =
  t.probes <- t.probes + 1;
  let s = find_slot t.dir ~shift:t.shift ~mask:t.mask key in
  Array.unsafe_get t.dir ((2 * s) + 1)

let run_start t r = Array.unsafe_get t.offsets r

(* ---- Build ------------------------------------------------------------ *)

(* Compare two row positions by their keys at levels [l..]: 0 on a tie,
   which [Array.stable_sort] breaks by position, i.e. by row id. *)
let rec compare_keys cols l i j =
  if l = Array.length cols then 0
  else begin
    let a = Array.unsafe_get cols l in
    let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get a j) in
    if c <> 0 then c else compare_keys cols (l + 1) i j
  end

let ascending (a : int array) =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) > a.(i) then ok := false
  done;
  !ok

(* Three steps: group the positions by level-0 key through the directory
   (each group numbered in order of first appearance), sort the d distinct
   keys and renumber the directory by rank, then place every position in
   its rank's run in row order and sort each run by the deeper columns.
   The slot order is the (keys, row) order of one full stable sort. *)
let build_filtered ?keep table ~columns =
  if columns = [||] then invalid_arg "Trie.build: no key columns";
  let n = Table.length table in
  (* The kept rows ascending; without [keep] a position is its row. *)
  let kept =
    Option.map
      (fun f ->
        let acc = ref [] in
        for r = n - 1 downto 0 do
          if f r then acc := r :: !acc
        done;
        Array.of_list !acc)
      keep
  in
  (* Read each key column once, in row order: no reader call (or page
     fetch) per comparison. *)
  let cols =
    Array.map
      (fun c ->
        let read = Table.int_reader table c in
        match kept with None -> Array.init n read | Some k -> Array.map read k)
      columns
  in
  let k0 = cols.(0) in
  let m = Array.length k0 in
  let bits = ref 4 in
  let dir = ref (empty_dir !bits) in
  let d = ref 0 in
  let group = Array.make m 0 in
  for p = 0 to m - 1 do
    let k = Array.unsafe_get k0 p and dr = !dir in
    let s = find_slot dr ~shift:(63 - !bits) ~mask:((1 lsl !bits) - 1) k in
    let g = dr.((2 * s) + 1) in
    if g >= 0 then group.(p) <- g
    else begin
      dr.(2 * s) <- k;
      dr.((2 * s) + 1) <- !d;
      group.(p) <- !d;
      incr d;
      if 2 * !d > 1 lsl !bits then begin
        incr bits;
        dir := rehash dr !bits
      end
    end
  done;
  let d = !d and dir = !dir and shift = 63 - !bits and mask = (1 lsl !bits) - 1 in
  let keys0 = Array.make d 0 in
  for s = 0 to mask do
    let g = dir.((2 * s) + 1) in
    if g >= 0 then keys0.(g) <- dir.(2 * s)
  done;
  (* Keys that first appear in ascending order (a clustered key) are
     numbered by rank already. *)
  if not (ascending keys0) then begin
    Array.stable_sort Int.compare keys0;
    let rank = Array.make d 0 in
    for r = 0 to d - 1 do
      let s = find_slot dir ~shift ~mask keys0.(r) in
      rank.(dir.((2 * s) + 1)) <- r;
      dir.((2 * s) + 1) <- r
    done;
    Array.iteri (fun p g -> group.(p) <- rank.(g)) group
  end;
  let offsets = Array.make (d + 1) 0 in
  Array.iter (fun r -> offsets.(r + 1) <- offsets.(r + 1) + 1) group;
  for r = 1 to d do
    offsets.(r) <- offsets.(r) + offsets.(r - 1)
  done;
  let next = Array.sub offsets 0 d in
  let perm = Array.make m 0 in
  Array.iteri
    (fun p r ->
      perm.(next.(r)) <- p;
      next.(r) <- next.(r) + 1)
    group;
  if Array.length columns > 1 then begin
    let cmp = compare_keys cols 1 in
    for r = 0 to d - 1 do
      let a = offsets.(r) and len = offsets.(r + 1) - offsets.(r) in
      if len > 1 then begin
        let run = Array.sub perm a len in
        Array.stable_sort cmp run;
        Array.blit run 0 perm a len
      end
    done
  end;
  {
    levels = Array.length columns;
    rows = (match kept with None -> perm | Some k -> Array.map (Array.get k) perm);
    keys0;
    offsets;
    dir;
    shift;
    mask;
    deep = Array.init (Array.length columns - 1) (fun l -> Array.map (Array.get cols.(l + 1)) perm);
    probes = 0;
  }

let build table ~columns = build_filtered table ~columns

(* ---- Searches --------------------------------------------------------- *)

(* First index in [lo, hi) of the sorted [a] with value >= k. *)
let first_ge (a : int array) ~lo ~hi k =
  let l = ref lo and r = ref hi in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if Array.unsafe_get a mid < k then l := mid + 1 else r := mid
  done;
  !l

(* First index in [lo, hi) of the sorted [a] with value > k. *)
let first_gt (a : int array) ~lo ~hi k =
  let l = ref lo and r = ref hi in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if Array.unsafe_get a mid <= k then l := mid + 1 else r := mid
  done;
  !l

(* At level 0 a search runs over the distinct keys, and the rank it finds
   starts a run of slots, clamped to the node. *)
let level0_slot t ~lo ~hi r = min hi (max lo t.offsets.(r))

let lower_bound t ~level ~lo ~hi k =
  if level = 0 then
    level0_slot t ~lo ~hi (first_ge t.keys0 ~lo:0 ~hi:(Array.length t.keys0) k)
  else first_ge t.deep.(level - 1) ~lo ~hi k

let upper_bound t ~level ~lo ~hi k =
  if level = 0 then
    level0_slot t ~lo ~hi (first_gt t.keys0 ~lo:0 ~hi:(Array.length t.keys0) k)
  else first_gt t.deep.(level - 1) ~lo ~hi k

let narrow_start t ~level ~lo ~hi klo =
  t.probes <- t.probes + 1;
  lower_bound t ~level ~lo ~hi klo

(* ---- Distinct-key cursor ---------------------------------------------- *)

(* At level 0 the cursor steps through ranks; deeper, through the start
   slots of the node's runs. *)
type cursor = {
  trie : t;
  level : int;
  keys : int array; (* [keys0] at level 0, else the level's slot keys *)
  node_lo : int;
  node_hi : int;
  stop : int; (* end of [pos]: a rank at level 0, [node_hi] deeper *)
  mutable pos : int; (* the current key's rank (level 0) or run start *)
}

let cursor t ~level ~lo ~hi =
  if level < 0 || level >= levels t then invalid_arg "Trie.cursor: bad level";
  if level = 0 then begin
    let d = Array.length t.keys0 in
    (* The first rank whose run starts at or past [hi], and the rank of
       the run holding slot [lo]. *)
    let stop = first_ge t.offsets ~lo:0 ~hi:d hi in
    let pos = if lo >= hi then stop else first_gt t.offsets ~lo:1 ~hi:(d + 1) lo - 1 in
    { trie = t; level; keys = t.keys0; node_lo = lo; node_hi = hi; stop; pos }
  end
  else
    { trie = t; level; keys = t.deep.(level - 1); node_lo = lo; node_hi = hi; stop = hi; pos = lo }

let at_end c = c.pos >= c.stop
let key c = c.keys.(c.pos)

let child c =
  if c.level = 0 then
    ( level0_slot c.trie ~lo:c.node_lo ~hi:c.node_hi c.pos,
      level0_slot c.trie ~lo:c.node_lo ~hi:c.node_hi (c.pos + 1) )
  else (c.pos, first_gt c.keys ~lo:c.pos ~hi:c.node_hi (key c))

let next c =
  c.trie.probes <- c.trie.probes + 1;
  c.pos <- (if c.level = 0 then c.pos + 1 else first_gt c.keys ~lo:c.pos ~hi:c.node_hi (key c))

let seek c k =
  c.trie.probes <- c.trie.probes + 1;
  if (not (at_end c)) && key c < k then c.pos <- first_ge c.keys ~lo:c.pos ~hi:c.stop k
