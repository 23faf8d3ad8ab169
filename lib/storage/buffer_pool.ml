(* Real buffer pool: a bounded set of page frames shared by every paged
   table.  A (file, page) key maps to a frame of bytes faulted in from a
   registered read-through function; the frame is valid until the next
   call into the pool, and the least-recently-used frame is recycled.

   A key packs its file id and page into one int, so a lookup hashes an
   immediate and a hit allocates nothing.  The pool is single-domain. *)

module Tbl = Hashtbl.Make (Int)

type node = {
  mutable key : int;
  mutable prev : node;
  mutable next : node;
  frame : Bytes.t;
}

type t = {
  cap : int;
  page_bytes : int;
  table : node Tbl.t;
  sentinel : node; (* sentinel.next = most recent, sentinel.prev = least *)
  mutable readers : (int -> Bytes.t -> unit) array; (* file id -> page reader *)
  mutable nreaders : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let make_sentinel () =
  let rec s = { key = -1; prev = s; next = s; frame = Bytes.empty } in
  s

let create ?(page_bytes = 256) ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  if page_bytes <= 0 || page_bytes mod 8 <> 0 then
    invalid_arg "Buffer_pool.create: page_bytes must be a positive multiple of 8";
  {
    cap = capacity;
    page_bytes;
    (* Grows with the resident pages, so an unbounded pool costs about 4 KB
       before its first fault.  512 buckets is above the minor heap's
       largest block (256 words), so every bucket array the table grows
       through is allocated in the major heap. *)
    table = Tbl.create 512;
    sentinel = make_sentinel ();
    readers = [||];
    nreaders = 0;
    hit_count = 0;
    miss_count = 0;
  }

let capacity t = t.cap
let page_bytes t = t.page_bytes
let resident t = Tbl.length t.table

(* 30 bits of id above 32 bits of page fill a 63-bit int. *)
let pack ~id ~page =
  if id lsr 30 <> 0 || page lsr 32 <> 0 then
    invalid_arg "Buffer_pool: id or page out of range";
  (id lsl 32) lor page

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

(* The resident node for [key] moved to the front, or [sentinel] on a
   miss.  Counts the access either way. *)
let lookup t key =
  match Tbl.find t.table key with
  | node ->
    t.hit_count <- t.hit_count + 1;
    unlink node;
    push_front t node;
    node
  | exception Not_found ->
    t.miss_count <- t.miss_count + 1;
    t.sentinel

(* Make [key] resident as the most recent entry.  A full pool evicts its
   least-recently-used entry and recycles the node, frame included. *)
let insert t key =
  let node =
    if Tbl.length t.table < t.cap then
      { key; prev = t.sentinel; next = t.sentinel; frame = Bytes.create t.page_bytes }
    else begin
      let lru = t.sentinel.prev in
      unlink lru;
      Tbl.remove t.table lru.key;
      lru.key <- key;
      lru
    end
  in
  Tbl.add t.table key node;
  push_front t node;
  node

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
  match t.readers.(file) page node.frame with
  | () -> ()
  | exception e ->
    (* Leave no entry whose frame holds some other page's bytes. *)
    unlink node;
    Tbl.remove t.table node.key;
    raise e

let read t ~file ~page =
  let key = pack ~id:file ~page in
  if file >= t.nreaders then invalid_arg "Buffer_pool.read: unregistered file";
  let node = lookup t key in
  if node != t.sentinel then node.frame
  else begin
    let node = insert t key in
    fault_in t node ~file ~page;
    node.frame
  end

let hits t = t.hit_count
let misses t = t.miss_count
let accesses t = t.hit_count + t.miss_count

let reset_stats t =
  t.hit_count <- 0;
  t.miss_count <- 0

(* [Tbl.clear] keeps the grown bucket array: a pool refilled after a
   clear faults without resizing its table again. *)
let clear t =
  Tbl.clear t.table;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel;
  reset_stats t
