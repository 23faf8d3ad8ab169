module Json = Wj_util.Json
module Metrics = Wj_obs.Metrics
module Counter = Wj_obs.Counter

type entry = { results : Json.t; epoch : int }

type t = {
  lru : entry Lru.t;
  hits : Counter.t;
  misses : Counter.t;
  stale : Counter.t;
  evictions : Counter.t;
  skipped_cheap : Counter.t;
}

let create ?(capacity = 256) metrics =
  {
    lru = Lru.create ~capacity;
    hits = Metrics.counter metrics "cache.hits";
    misses = Metrics.counter metrics "cache.misses";
    stale = Metrics.counter metrics "cache.stale";
    evictions = Metrics.counter metrics "cache.evictions";
    skipped_cheap = Metrics.counter metrics "cache.skipped_cheap";
  }

let find t ~key ~epoch =
  match Lru.find t.lru key with
  | None ->
    Counter.incr t.misses;
    None
  | Some entry when entry.epoch < epoch ->
    Lru.remove t.lru key;
    Counter.incr t.stale;
    None
  | Some entry ->
    Counter.incr t.hits;
    Some entry

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
    if Lru.add t.lru key entry then Counter.incr t.evictions;
    true

let length t = Lru.length t.lru
