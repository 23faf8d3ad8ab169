(* The in-process half of the layer-by-layer ledger: the same plan walked
   N times at each entry point down the stack, timed from outside through
   each module's public functions.  A layer's cost is the difference
   between adjacent rows. *)

module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Walker = Wj_core.Walker
module Walk_plan = Wj_core.Walk_plan
module Engine = Wj_core.Engine
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Index = Wj_index.Index
module Prng = Wj_util.Prng
module Table = Wj_storage.Table
module Buffer_pool = Wj_storage.Buffer_pool
module Scheduler = Wj_service.Scheduler

let now = Measure.now

(* Distinct physical indexes the plan's walks can probe: every registry
   slot (the start sampler may use a predicate index) plus the plan's
   pre-intersection tries. *)
let indexes reg (plan : Walk_plan.t) =
  let acc = ref [] in
  let add idx = if not (List.memq idx !acc) then acc := idx :: !acc in
  Registry.iter reg (fun ~pos:_ ~column:_ idx -> add idx);
  Array.iter
    (fun (st : Walk_plan.step) ->
      add st.index;
      Option.iter (fun (i : Walk_plan.intersect) -> add i.itrie) st.isect)
    plan.steps;
  !acc

let probes idxs = List.fold_left (fun acc i -> acc + Index.probes i) 0 idxs

(* ---- deterministic counts ------------------------------------------------- *)

type counts = {
  cost_per_walk : float;
  minor_words_per_walk : float;
  success_ratio : float;
  probes_per_walk : float;
}

(* N walks of [Walker.walk] from a fixed seed: abstract cost, allocation
   and index probes per walk repeat exactly from run to run. *)
let count_walks prepared idxs ~seed ~n =
  let prng = Prng.create seed in
  let cost = ref 0 and succ = ref 0 in
  let p0 = probes idxs in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    (match Walker.walk prepared prng with
    | Walker.Success _ -> incr succ
    | Walker.Failure _ -> ());
    cost := !cost + Walker.steps_of_last_walk prepared
  done;
  let words = Gc.minor_words () -. w0 in
  let per x = x /. float_of_int n in
  {
    cost_per_walk = per (float_of_int !cost);
    minor_words_per_walk = per words;
    success_ratio = per (float_of_int !succ);
    probes_per_walk = per (float_of_int (probes idxs - p0));
  }

(* ---- rows ------------------------------------------------------------------ *)

let ns_per_walk dt n = dt *. 1e9 /. float_of_int n

let walker_row prepared ~seed n =
  let prng = Prng.create seed in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Walker.walk prepared prng))
  done;
  ns_per_walk (now () -. t0) n

let engine_row q prepared ~batch ~prefetch ~seed n =
  let engine = Engine.create ~batch ~prefetch prepared in
  let est = Wj_stats.Estimator.create q.Query.agg in
  let prng = Prng.create seed in
  let t0 = now () in
  for _ = 1 to n do
    Engine.feed q prepared est (Engine.next engine prng)
  done;
  ns_per_walk (now () -. t0) n

let fixed_cfg plan ~seed n =
  Run_config.make ~seed ~max_walks:n ~max_time:1e9 ~plan_choice:(Run_config.Fixed plan) ()

let driver_row q reg plan ~seed n =
  let t0 = now () in
  let out = Online.run_session (fixed_cfg plan ~seed n) q reg in
  let dt = now () -. t0 in
  assert (out.final.walks = n);
  ns_per_walk dt n

let scheduler_row q reg plan ~seed n =
  let t0 = now () in
  let sched = Scheduler.create ~quantum:256 ~max_live:1 () in
  let s = Scheduler.submit sched (fixed_cfg plan ~seed n) q reg in
  Scheduler.drain sched;
  let dt = now () -. t0 in
  assert (Scheduler.state s = Scheduler.Done);
  ns_per_walk dt n

(* Index probes replayed outside the walker: for every plan step, the join
   key of a uniformly drawn parent row looked up in the index the step
   walks through (its trie when the step pre-intersects), then one
   uniform neighbour selected.  Keys are drawn before timing so paged
   parent reads are not charged to the index.  Returns ns per physical
   probe. *)
let replay_keys q (plan : Walk_plan.t) ~seed ~n =
  let prng = Prng.create seed in
  let k = Array.length plan.steps in
  let keys = Array.make (n * k) 0 in
  Array.iteri
    (fun i (st : Walk_plan.step) ->
      let pos, col = st.cond.left in
      let read = Query.int_key_reader q ~pos ~col in
      let rows = Table.length q.Query.tables.(pos) in
      for j = 0 to n - 1 do
        keys.((j * k) + i) <- read (Prng.int prng rows)
      done)
    plan.steps;
  keys

let index_row (plan : Walk_plan.t) idxs keys ~seed n =
  let k = Array.length plan.steps in
  let sidx =
    Array.map
      (fun (st : Walk_plan.step) ->
        match st.isect with Some i -> i.itrie | None -> st.index)
      plan.steps
  in
  let conds = Array.map (fun (st : Walk_plan.step) -> st.cond) plan.steps in
  let prng = Prng.create seed in
  let sink = ref 0 in
  let p0 = probes idxs in
  let t0 = now () in
  for j = 0 to n - 1 do
    for i = 0 to k - 1 do
      let idx = sidx.(i) and key = keys.((j * k) + i) in
      match conds.(i).op with
      | Query.Eq ->
        let c = Index.count_eq idx key in
        if c > 0 then sink := !sink + Index.nth_eq idx key (Prng.int prng c)
      | Query.Band _ ->
        let lo, hi = Query.join_key_range conds.(i) ~from_left:true key in
        let c = Index.count_range idx ~lo ~hi in
        if c > 0 then sink := !sink + Index.nth_range idx ~lo ~hi (Prng.int prng c)
    done
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity !sink);
  dt *. 1e9 /. float_of_int (max 1 (probes idxs - p0))

(* ---- interleaving -------------------------------------------------------------- *)

type row = { label : string; layer : string; metric : string; run : int -> float }
type stat = { row : row; med : float; lo : float; hi : float }

(* The rows of one plan's ledger, each timing at most [n] walks in ns per
   walk after [clear] (which empties a paged backend's pool): the stack
   from replayed index probes up to the scheduler, then side rows that
   are no layer of it — the batched engine, and for a paged query the
   same walks over [mem_q]'s in-memory tables. *)
let rows ~clear ~seed ~n ?mem_q q reg (plan : Walk_plan.t) ~probes_per_walk =
  let idxs = indexes reg plan in
  let prepared = Walker.prepare q reg plan in
  let row label layer metric f = { label; layer; metric; run = (fun n -> clear (); f n) } in
  let keys = replay_keys q plan ~seed ~n in
  let index_walk n = index_row plan idxs keys ~seed n *. probes_per_walk in
  let engine batch prefetch = engine_row q prepared ~batch ~prefetch ~seed in
  ( [
      row "Index.count_eq+nth_eq, replayed" "Index" "index.walk_ns" index_walk;
      row "Walker.walk" "Walker" "walker.walk_ns" (walker_row prepared ~seed);
      row "Engine.next+feed, batch 1" "Engine" "engine.walk_ns" (engine 1 true);
      row "Online.run_session, fixed plan" "Driver" "driver.walk_ns" (driver_row q reg plan ~seed);
      row "Scheduler.submit+drain" "Scheduler" "scheduler.walk_ns" (scheduler_row q reg plan ~seed);
    ],
    [
      row "Engine batch 64, prefetch on" "Engine" "engine.b64_walk_ns" (engine 64 true);
      row "Engine batch 64, prefetch off" "Engine" "engine.b64_noprefetch_walk_ns" (engine 64 false);
    ]
    @
    match mem_q with
    | None -> []
    | Some mq ->
      [
        row "Walker.walk, in-memory tables" "Walker" "walker.mem_walk_ns"
          (walker_row (Walker.prepare mq reg plan) ~seed);
      ] )

(* One short warm-up pass of every row, then [reps] full passes taken
   round-robin, so slow drift (heap growth, cache warming, a neighbour's
   load) is spread over all rows instead of charged to whichever ran
   last. *)
let interleave ~reps ~n rows =
  List.iter (fun r -> ignore (r.run (max 1 (n / 5)))) rows;
  let samples = Array.make (List.length rows) [] in
  for _ = 1 to reps do
    List.iteri (fun i r -> samples.(i) <- r.run n :: samples.(i)) rows
  done;
  List.mapi
    (fun i row ->
      let s = samples.(i) in
      { row; med = Measure.median s; lo = Measure.minimum s; hi = Measure.maximum s })
    rows

let median_of stats metric = (List.find (fun s -> s.row.metric = metric) stats).med

(* A layer's self cost is its row minus the row below it.  When that
   difference is within the rows' run-to-run spread it is not resolved,
   and is printed as such rather than as a (possibly negative) cost. *)
let print_ledger ~title stack side =
  Printf.printf "%s\n  %-34s %10s  %-21s %s\n" title "entry point" "ns/walk" "[min - max]"
    "layer self cost";
  let line s self =
    Printf.printf "  %-34s %10.1f  [%8.1f - %8.1f] %s\n" s.row.label s.med s.lo s.hi self
  in
  List.iteri
    (fun i s ->
      if i = 0 then line s (Printf.sprintf "%s: %.1f" s.row.layer s.med)
      else
        let below = List.nth stack (i - 1) in
        let d = s.med -. below.med in
        let spread = Float.max (s.hi -. s.lo) (below.hi -. below.lo) in
        line s
          (if d < spread then s.row.layer ^ ": unresolved"
           else Printf.sprintf "%s: %.1f" s.row.layer d))
    stack;
  List.iter (fun s -> line s "(side row)") side

(* ---- the storage pager ------------------------------------------------------------ *)

(* Distinct data pages N walks touch: the tables reopened from their
   segment files over a pool that never evicts. *)
let working_set q reg plan ~dir ~seed ~n =
  (* Room for every page of every column's data, dictionary and null
     files, so the pool never evicts. *)
  let pages =
    Array.fold_left
      (fun acc t ->
        let rows_pages = (Table.length t / Wj_storage.Segment.default_rows_per_page) + 2 in
        acc + (Wj_storage.Schema.arity (Table.schema t) * 3 * rows_pages))
      1024 q.Query.tables
  in
  let pool = Buffer_pool.create ~page_bytes:Wj_storage.Backend.page_bytes ~capacity:pages () in
  let reopened = Hashtbl.create 8 in
  let reopen t =
    let name = Table.name t in
    match Hashtbl.find_opt reopened name with
    | Some t' -> t'
    | None ->
      let t' = Table.open_paged ~pool ~dir ~name in
      Hashtbl.add reopened name t';
      t'
  in
  let q' = { q with Query.tables = Array.map reopen q.Query.tables } in
  let prepared = Walker.prepare q' reg plan in
  Buffer_pool.reset_stats pool;
  let prng = Prng.create seed in
  for _ = 1 to n do
    ignore (Walker.walk prepared prng)
  done;
  Buffer_pool.misses pool
