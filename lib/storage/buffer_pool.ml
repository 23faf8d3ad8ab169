(* Real buffer pool: a bounded set of page frames shared by every paged
   table.  Two access modes coexist on one LRU structure:

   - [touch] is the frameless residency-tracking mode the I/O simulation
     has always used: a (table, page) key either is or is not resident,
     and the reply feeds the cost model.
   - [pin]/[unpin] is the pager mode: a (file, page) key maps to a frame
     of bytes faulted in from a registered read-through function, and the
     frame cannot be evicted while pinned.

   Both modes share the hit/miss counters, so the reconciliation identity
   accesses = hits + misses holds across either. *)

type node = {
  key : int * int;
  mutable prev : node;
  mutable next : node;
  mutable pins : int;
  mutable frame : Bytes.t; (* [Bytes.empty] for frameless (touch) entries *)
}

type t = {
  cap : int;
  page_bytes : int;
  table : (int * int, node) Hashtbl.t;
  sentinel : node; (* sentinel.next = most recent, sentinel.prev = least *)
  mutable readers : (int -> Bytes.t -> unit) array; (* file id -> page reader *)
  mutable nreaders : int;
  mutable free : Bytes.t list; (* recycled frames of evicted pages *)
  mutable allocated : int; (* frames ever allocated, <= cap *)
  mutable pinned_count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let make_sentinel () =
  let rec s =
    { key = (min_int, min_int); prev = s; next = s; pins = 0; frame = Bytes.empty }
  in
  s

let create ?(page_bytes = 256) ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  if page_bytes <= 0 || page_bytes mod 8 <> 0 then
    invalid_arg "Buffer_pool.create: page_bytes must be a positive multiple of 8";
  {
    cap = capacity;
    page_bytes;
    table = Hashtbl.create (2 * capacity);
    sentinel = make_sentinel ();
    readers = [||];
    nreaders = 0;
    free = [];
    allocated = 0;
    pinned_count = 0;
    hit_count = 0;
    miss_count = 0;
  }

let capacity t = t.cap
let page_bytes t = t.page_bytes
let resident t = Hashtbl.length t.table
let pinned t = t.pinned_count

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

let drop_node t node =
  unlink node;
  Hashtbl.remove t.table node.key;
  if Bytes.length node.frame > 0 then t.free <- node.frame :: t.free

(* Evict the least-recently-used unpinned entry.  [framed] restricts the
   scan to entries that hold a byte frame (so the eviction is guaranteed
   to recycle one).  Raises when every candidate is pinned. *)
let evict_lru t ~framed =
  let rec scan n =
    if n == t.sentinel then
      failwith "Buffer_pool: every frame is pinned; cannot evict"
    else if n.pins > 0 || (framed && Bytes.length n.frame = 0) then scan n.prev
    else n
  in
  drop_node t (scan t.sentinel.prev)

let acquire_frame t =
  match t.free with
  | f :: rest ->
    t.free <- rest;
    f
  | [] ->
    if t.allocated < t.cap then begin
      t.allocated <- t.allocated + 1;
      Bytes.create t.page_bytes
    end
    else begin
      evict_lru t ~framed:true;
      match t.free with
      | f :: rest ->
        t.free <- rest;
        f
      | [] -> assert false
    end

let touch t ~table ~page =
  let key = (table, page) in
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hit_count <- t.hit_count + 1;
    unlink node;
    push_front t node;
    true
  | None ->
    t.miss_count <- t.miss_count + 1;
    if Hashtbl.length t.table >= t.cap then evict_lru t ~framed:false;
    let node = { key; prev = t.sentinel; next = t.sentinel; pins = 0; frame = Bytes.empty } in
    Hashtbl.add t.table key node;
    push_front t node;
    false

(* ---- Pager mode ------------------------------------------------------- *)

let register_file t read =
  let id = t.nreaders in
  if id = Array.length t.readers then begin
    let grown = Array.make (max 8 (2 * id)) read in
    Array.blit t.readers 0 grown 0 id;
    t.readers <- grown
  end;
  t.readers.(id) <- read;
  t.nreaders <- id + 1;
  id

let fault_in t node ~file ~page =
  if file < 0 || file >= t.nreaders then
    invalid_arg "Buffer_pool.pin: unregistered file";
  node.frame <- acquire_frame t;
  t.readers.(file) page node.frame

let pin t ~file ~page =
  let key = (file, page) in
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hit_count <- t.hit_count + 1;
    unlink node;
    push_front t node;
    if Bytes.length node.frame = 0 then
      (* Residency was tracked framelessly (touch mode); materialize. *)
      fault_in t node ~file ~page;
    if node.pins = 0 then t.pinned_count <- t.pinned_count + 1;
    node.pins <- node.pins + 1;
    node.frame
  | None ->
    t.miss_count <- t.miss_count + 1;
    if Hashtbl.length t.table >= t.cap then evict_lru t ~framed:false;
    let node = { key; prev = t.sentinel; next = t.sentinel; pins = 1; frame = Bytes.empty } in
    fault_in t node ~file ~page;
    Hashtbl.add t.table key node;
    push_front t node;
    t.pinned_count <- t.pinned_count + 1;
    node.frame

let unpin t ~file ~page =
  match Hashtbl.find_opt t.table (file, page) with
  | None -> invalid_arg "Buffer_pool.unpin: page not resident"
  | Some node ->
    if node.pins <= 0 then invalid_arg "Buffer_pool.unpin: page not pinned";
    node.pins <- node.pins - 1;
    if node.pins = 0 then t.pinned_count <- t.pinned_count - 1

let contains t ~table ~page = Hashtbl.mem t.table (table, page)
let hits t = t.hit_count
let misses t = t.miss_count
let accesses t = t.hit_count + t.miss_count

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0

let evict_all t =
  (* Collect first: dropping while walking the intrusive list is fragile. *)
  let victims = ref [] in
  let rec walk n =
    if n != t.sentinel then begin
      if n.pins = 0 then victims := n :: !victims;
      walk n.next
    end
  in
  walk t.sentinel.next;
  List.iter (drop_node t) !victims

let clear t =
  evict_all t;
  reset_stats t
