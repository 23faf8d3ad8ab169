module Json = Wj_util.Json
module Metrics = Wj_obs.Metrics
module Counter = Wj_obs.Counter

type entry = { results : Json.t; epoch : int }

(* Recency is a logical clock: each hit/store stamps the entry, and
   eviction scans for the oldest stamp.  O(n) per eviction is fine at
   the daemon's cache sizes (hundreds of distinct statements). *)
type slot = { value : entry; mutable last_used : int }

type t = {
  table : (string, slot) Hashtbl.t;
  capacity : int;
  mutable clock : int;
  hits : Counter.t;
  misses : Counter.t;
  stale : Counter.t;
  evictions : Counter.t;
  skipped_cheap : Counter.t;
}

let create ?(capacity = 256) metrics =
  if capacity <= 0 then invalid_arg "Estimate_cache.create: capacity must be positive";
  {
    table = Hashtbl.create 64;
    capacity;
    clock = 0;
    hits = Metrics.counter metrics "cache.hits";
    misses = Metrics.counter metrics "cache.misses";
    stale = Metrics.counter metrics "cache.stale";
    evictions = Metrics.counter metrics "cache.evictions";
    skipped_cheap = Metrics.counter metrics "cache.skipped_cheap";
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t ~key ~epoch =
  match Hashtbl.find_opt t.table key with
  | None ->
    Counter.incr t.misses;
    None
  | Some slot when slot.value.epoch < epoch ->
    Hashtbl.remove t.table key;
    Counter.incr t.stale;
    None
  | Some slot ->
    slot.last_used <- tick t;
    Counter.incr t.hits;
    Some slot.value

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best <= slot.last_used -> acc
        | _ -> Some (key, slot.last_used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    Counter.incr t.evictions
  | None -> ()

(* Admission floor, in exact-executor rows visited.  At 50–200 ns a row
   it is roughly a millisecond of enumeration: an answer cheaper than
   that is cheaper to recompute than to keep a slot for. *)
let min_rows_visited = 10_000

(* Admission policy: [cost] (rows visited, passed for exact answers)
   below the floor skips the store and counts [cache.skipped_cheap].
   Costless stores (online estimates, whose walks are always worth
   saving) are unconditional. *)
let store t ~key ?cost entry =
  match cost with
  | Some c when c < min_rows_visited ->
    Counter.incr t.skipped_cheap;
    false
  | _ ->
    (if not (Hashtbl.mem t.table key) && Hashtbl.length t.table >= t.capacity then
       evict_lru t);
    Hashtbl.replace t.table key { value = entry; last_used = tick t };
    true

let length t = Hashtbl.length t.table
