(* Counted B+-tree.

   Data lives in the leaves; internal nodes hold separator keys.  The
   separator convention tolerates duplicate runs crossing node boundaries:
   for an internal node with children c_0..c_n and separators s_0..s_{n-1},

      every key in c_i  <= s_i   and   every key in c_{i+1} >= s_i.

   Every node caches its subtree entry count ([size]), giving O(log n)
   rank/select — the basis of Olken sampling.  Insertion splits full nodes
   preemptively on the way down, so it needs no parent back-propagation.
   Every index is built once, so there is no deletion. *)

type node = {
  mutable is_leaf : bool;
  mutable nkeys : int;
  mutable keys : int array;
  mutable vals : int array; (* leaves only *)
  mutable children : node array; (* internal only *)
  mutable size : int;
}

type t = {
  tdeg : int;
  mutable root : node;
  mutable length : int;
  mutable probes : int; (* root-to-leaf query descents since build/reset *)
}

(* Placeholder filling unused child slots; never dereferenced. *)
let dummy =
  { is_leaf = true; nkeys = 0; keys = [||]; vals = [||]; children = [||]; size = 0 }

let make_leaf tdeg =
  {
    is_leaf = true;
    nkeys = 0;
    keys = Array.make ((2 * tdeg) - 1) 0;
    vals = Array.make ((2 * tdeg) - 1) 0;
    children = [||];
    size = 0;
  }

let make_internal tdeg =
  {
    is_leaf = false;
    nkeys = 0;
    keys = Array.make ((2 * tdeg) - 1) 0;
    vals = [||];
    children = Array.make (2 * tdeg) dummy;
    size = 0;
  }

let create ?(min_degree = 16) () =
  if min_degree < 2 then invalid_arg "Btree.create: min_degree must be >= 2";
  { tdeg = min_degree; root = make_leaf min_degree; length = 0; probes = 0 }

let length t = t.length
let full tdeg node = node.nkeys = (2 * tdeg) - 1

(* First index in keys[0..n) whose key is >= k. *)
let lower_bound keys n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* First index in keys[0..n) whose key is > k. *)
let upper_bound keys n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) > k then hi := mid else lo := mid + 1
  done;
  !lo

let insert_separator parent i sep right =
  Array.blit parent.keys i parent.keys (i + 1) (parent.nkeys - i);
  Array.blit parent.children (i + 1) parent.children (i + 2) (parent.nkeys - i);
  parent.keys.(i) <- sep;
  parent.children.(i + 1) <- right;
  parent.nkeys <- parent.nkeys + 1

let sum_child_sizes node lo hi =
  let acc = ref 0 in
  for i = lo to hi do
    acc := !acc + node.children.(i).size
  done;
  !acc

let split_child tdeg parent i =
  let child = parent.children.(i) in
  if child.is_leaf then begin
    let right = make_leaf tdeg in
    right.nkeys <- tdeg - 1;
    Array.blit child.keys tdeg right.keys 0 (tdeg - 1);
    Array.blit child.vals tdeg right.vals 0 (tdeg - 1);
    child.nkeys <- tdeg;
    right.size <- tdeg - 1;
    child.size <- tdeg;
    insert_separator parent i right.keys.(0) right
  end
  else begin
    let right = make_internal tdeg in
    right.nkeys <- tdeg - 1;
    Array.blit child.keys tdeg right.keys 0 (tdeg - 1);
    Array.blit child.children tdeg right.children 0 tdeg;
    let sep = child.keys.(tdeg - 1) in
    child.nkeys <- tdeg - 1;
    right.size <- sum_child_sizes right 0 (tdeg - 1);
    child.size <- child.size - right.size;
    insert_separator parent i sep right
  end

let rec insert_nonfull tdeg node k v =
  node.size <- node.size + 1;
  if node.is_leaf then begin
    let pos = upper_bound node.keys node.nkeys k in
    Array.blit node.keys pos node.keys (pos + 1) (node.nkeys - pos);
    Array.blit node.vals pos node.vals (pos + 1) (node.nkeys - pos);
    node.keys.(pos) <- k;
    node.vals.(pos) <- v;
    node.nkeys <- node.nkeys + 1
  end
  else begin
    let i = ref (lower_bound node.keys node.nkeys k) in
    if full tdeg node.children.(!i) then begin
      split_child tdeg node !i;
      if k > node.keys.(!i) then incr i
    end;
    insert_nonfull tdeg node.children.(!i) k v
  end

let insert t ~key ~value =
  if full t.tdeg t.root then begin
    let new_root = make_internal t.tdeg in
    new_root.children.(0) <- t.root;
    new_root.size <- t.root.size;
    t.root <- new_root;
    split_child t.tdeg new_root 0
  end;
  insert_nonfull t.tdeg t.root key value;
  t.length <- t.length + 1

let rec rank_lt_node node k =
  if node.is_leaf then lower_bound node.keys node.nkeys k
  else begin
    let j = lower_bound node.keys node.nkeys k in
    sum_child_sizes node 0 (j - 1) + rank_lt_node node.children.(j) k
  end

let rank_lt t k =
  t.probes <- t.probes + 1;
  rank_lt_node t.root k

let rank_le t k =
  t.probes <- t.probes + 1;
  if k = max_int then t.length else rank_lt_node t.root (k + 1)

let rec nth_node node r =
  if node.is_leaf then (node.keys.(r), node.vals.(r))
  else begin
    let i = ref 0 and r = ref r in
    while !r >= node.children.(!i).size do
      r := !r - node.children.(!i).size;
      incr i
    done;
    nth_node node.children.(!i) !r
  end

let nth t r =
  if r < 0 || r >= t.length then invalid_arg "Btree.nth: rank out of range";
  t.probes <- t.probes + 1;
  nth_node t.root r

let count_range t ~lo ~hi = if lo > hi then 0 else rank_le t hi - rank_lt t lo
let count_eq t k = count_range t ~lo:k ~hi:k

let nth_in_range t ~lo ~hi k =
  if lo > hi || k < 0 then None
  else begin
    let base = rank_lt t lo in
    let avail = rank_le t hi - base in
    if k >= avail then None else Some (nth t (base + k))
  end

let rec iter_range_node node ~lo ~hi f =
  if node.is_leaf then begin
    let start = lower_bound node.keys node.nkeys lo in
    let stop = upper_bound node.keys node.nkeys hi in
    for i = start to stop - 1 do
      f node.keys.(i) node.vals.(i)
    done
  end
  else
    for i = 0 to node.nkeys do
      (* Child i holds keys <= keys[i] (for i < nkeys) and >= keys[i-1]. *)
      let entirely_below = i < node.nkeys && node.keys.(i) < lo in
      let entirely_above = i > 0 && node.keys.(i - 1) > hi in
      if not (entirely_below || entirely_above) then
        iter_range_node node.children.(i) ~lo ~hi f
    done

let iter_range t ~lo ~hi f =
  t.probes <- t.probes + 1;
  if lo <= hi then iter_range_node t.root ~lo ~hi f

let probes t = t.probes
let reset_probes t = t.probes <- 0

let of_table table ~column =
  let t = create () in
  (* Typed column read: no Value.t is materialized during the build. *)
  let key = Wj_storage.Table.int_reader table column in
  for row = 0 to Wj_storage.Table.length table - 1 do
    insert t ~key:(key row) ~value:row
  done;
  t

let height t =
  let rec go node acc = if node.is_leaf then acc else go node.children.(0) (acc + 1) in
  go t.root 1

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  (* Returns (depth, Some (smallest, largest) key) for non-empty subtrees. *)
  let rec check node ~is_root =
    let cap = (2 * t.tdeg) - 1 in
    if node.nkeys > cap then fail "node exceeds capacity";
    for i = 1 to node.nkeys - 1 do
      if node.keys.(i - 1) > node.keys.(i) then fail "keys out of order"
    done;
    if node.is_leaf then begin
      if node.size <> node.nkeys then fail "leaf size mismatch";
      if (not is_root) && node.nkeys < t.tdeg - 1 then fail "leaf underflow";
      if node.nkeys = 0 then (1, None)
      else (1, Some (node.keys.(0), node.keys.(node.nkeys - 1)))
    end
    else begin
      if node.nkeys < 1 then fail "internal node with no separator";
      if (not is_root) && node.nkeys < t.tdeg - 1 then fail "internal underflow";
      let total = ref 0 in
      let depth = ref 0 in
      let first_min = ref None and last_max = ref None in
      for i = 0 to node.nkeys do
        let child = node.children.(i) in
        let d, bounds = check child ~is_root:false in
        if !depth = 0 then depth := d
        else if d <> !depth then fail "leaves at unequal depth";
        total := !total + child.size;
        (match bounds with
        | None -> fail "empty non-root child"
        | Some (mn, mx) ->
          if i = 0 then first_min := Some mn;
          last_max := Some mx;
          if i < node.nkeys && mx > node.keys.(i) then
            fail "child exceeds right separator";
          if i > 0 && mn < node.keys.(i - 1) then fail "child below left separator")
      done;
      if node.size <> !total then fail "internal size mismatch";
      match (!first_min, !last_max) with
      | Some mn, Some mx -> (!depth + 1, Some (mn, mx))
      | _ -> fail "unreachable"
    end
  in
  match check t.root ~is_root:true with
  | _ ->
    if t.root.size <> t.length then Error "root size does not match length" else Ok ()
  | exception Bad msg -> Error msg
