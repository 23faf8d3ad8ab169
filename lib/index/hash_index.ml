module Table = Wj_storage.Table

(* CSR layout.  The rows sharing a key form one group; group [g]'s rows
   are [rows.(offsets.(g)) .. rows.(offsets.(g + 1) - 1)], ascending.  An
   open-addressing directory with linear probing maps a key to its group:
   slot [s] holds the key at [dir.(2s)] and the group at [dir.(2s + 1)],
   or -1 there when the slot is empty.  A lookup reads one directory slot
   (rarely a few), then two adjacent offsets; a select is one array read. *)
type t = {
  column : int;
  dir : int array;
  shift : int; (* 63 - log2 (number of slots) *)
  mask : int; (* number of slots - 1 *)
  offsets : int array; (* length = groups + 1 *)
  rows : int array;
  mutable probes : int; (* query lookups served since the build *)
}

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

(* Build in two passes over the column.  The first assigns each key a
   group (in order of first appearance) through a directory that doubles
   whenever it is half full, and counts each group's rows; the second
   places every row at its group's next free position, so each group
   lists its rows in row order. *)
let build table ~column =
  let n = Table.length table in
  let key = Table.int_reader table column in
  let bits = ref 4 in
  let dir = ref (empty_dir !bits) in
  let groups = ref 0 in
  let group_of_row = Array.make n 0 in
  let counts = Array.make (n + 1) 0 in (* rows per group; at most n groups *)
  let grow () =
    let old = !dir in
    incr bits;
    let d = empty_dir !bits in
    let shift = 63 - !bits and mask = (1 lsl !bits) - 1 in
    for s = 0 to (Array.length old / 2) - 1 do
      let g = old.((2 * s) + 1) in
      if g >= 0 then begin
        let k = old.(2 * s) in
        let s' = find_slot d ~shift ~mask k in
        d.(2 * s') <- k;
        d.((2 * s') + 1) <- g
      end
    done;
    dir := d
  in
  for row = 0 to n - 1 do
    let k = key row in
    let d = !dir in
    let s = find_slot d ~shift:(63 - !bits) ~mask:((1 lsl !bits) - 1) k in
    let g =
      let g = d.((2 * s) + 1) in
      if g >= 0 then g
      else begin
        let g = !groups in
        d.(2 * s) <- k;
        d.((2 * s) + 1) <- g;
        incr groups;
        if 2 * !groups > 1 lsl !bits then grow ();
        g
      end
    in
    group_of_row.(row) <- g;
    counts.(g) <- counts.(g) + 1
  done;
  let offsets = Array.make (!groups + 1) 0 in
  for g = 0 to !groups - 1 do
    offsets.(g + 1) <- offsets.(g) + counts.(g)
  done;
  (* [counts] becomes each group's next free position. *)
  Array.blit offsets 0 counts 0 !groups;
  let rows = Array.make n 0 in
  for row = 0 to n - 1 do
    let g = group_of_row.(row) in
    rows.(counts.(g)) <- row;
    counts.(g) <- counts.(g) + 1
  done;
  {
    column;
    dir = !dir;
    shift = 63 - !bits;
    mask = (1 lsl !bits) - 1;
    offsets;
    rows;
    probes = 0;
  }

let table_column t = t.column

let group t key =
  t.probes <- t.probes + 1;
  let s = find_slot t.dir ~shift:t.shift ~mask:t.mask key in
  Array.unsafe_get t.dir ((2 * s) + 1)

let offset t g = t.offsets.(g)
let rows t = t.rows

let count t key =
  let g = group t key in
  if g < 0 then 0 else t.offsets.(g + 1) - t.offsets.(g)

let nth t key k =
  let g = group t key in
  if g < 0 then invalid_arg "Hash_index.nth: absent key";
  let lo = t.offsets.(g) in
  if k < 0 || lo + k >= t.offsets.(g + 1) then invalid_arg "Hash_index.nth: out of range";
  t.rows.(lo + k)

let probes t = t.probes
let distinct_keys t = Array.length t.offsets - 1
let total_entries t = Array.length t.rows
