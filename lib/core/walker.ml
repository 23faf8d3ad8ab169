module Index = Wj_index.Index
module Table = Wj_storage.Table
module Prng = Wj_util.Prng
module Counter = Wj_obs.Counter
module Histogram = Wj_obs.Histogram

(* Metric handles resolved once at prepare time, so the hot path pays one
   [option] branch per site when metrics are off and plain array stores
   when they are on. *)
type instr = {
  i_walks : Counter.t;
  i_successes : Counter.t;
  i_failures : Counter.t;
  i_fail_depth : Histogram.t; (* bucket = failure depth *)
  i_reject_empty : Counter.t; (* empty neighbour set / empty start *)
  i_reject_pred : Counter.t; (* a predicate rejected the sampled row *)
  i_reject_nontree : Counter.t; (* a non-tree join check failed *)
  i_phase_attempts : Histogram.t; (* bucket = phase index (0 = start) *)
  i_phase_cost : Histogram.t; (* bucket = phase index, weight = cost *)
  i_index_probes : Counter.t;
  i_row_accesses : Counter.t;
}

let instr_of_metrics m ~k =
  let c name = Wj_obs.Metrics.counter m name in
  let h buckets name = Wj_obs.Metrics.histogram m ~buckets name in
  {
    i_walks = c "walker.walks";
    i_successes = c "walker.successes";
    i_failures = c "walker.failures";
    i_fail_depth = h (k + 1) "walker.failure_depth";
    i_reject_empty = c "walker.rejects.empty";
    i_reject_pred = c "walker.rejects.predicate";
    i_reject_nontree = c "walker.rejects.nontree";
    i_phase_attempts = h (max 1 k) "walker.phase_attempts";
    i_phase_cost = h (max 1 k) "walker.phase_cost";
    i_index_probes = c "walker.index_probes";
    i_row_accesses = c "walker.row_accesses";
  }

type outcome =
  | Success of { path : int array; inv_p : float }
  | Failure of { depth : int }

type start_sampler =
  | Uniform of { table : Table.t }
  | Olken of Index.located (* the predicate's range, located once *)

(* The result of one phase of a walk (its start, or one plan step). *)
type phase =
  | Advanced (* one more table bound and vetted; its HT factor is in [factor] *)
  | Dead_unbound (* died before vetting the table: depth does not count it *)
  | Dead_bound (* bound and passed its predicates, failed a non-tree check *)

(* An all-float record is stored flat, so writing its field boxes nothing
   (a float field of [prepared] itself would allocate on every store). *)
type factor = { mutable value : float }

(* A compiled non-tree join check, carrying what per-edge reject
   attribution needs: the edge's label, its dedicated counter (when
   metrics are on), alongside the aggregate nontree counter. *)
type path_check = {
  pc_check : int array -> bool;
  pc_label : string; (* "f~h" — matches Walk_plan.describe's edge labels *)
  pc_counter : Counter.t option; (* walker.rejects.nontree.<label> *)
}

(* A folded non-tree edge, compiled: the step narrows its located span
   at the next trie level by the key of the edge's already-bound other
   side (a flat column read) shifted by the edge's range. *)
type compiled_fold = {
  f_other : int; (* bound position supplying the key *)
  f_key : int -> int; (* other row -> join key *)
  f_lo : int; (* key-range delta (Eq: 0) *)
  f_hi : int;
  f_label : string;
  f_counter : Counter.t option;
}

(* Per-step compiled form: everything a step touches resolved to typed
   column reads, so advancing a walk performs no Value.t allocation or
   matching. *)
type compiled_step = {
  step : Walk_plan.step;
  key_of_parent : int -> int; (* parent row -> join key (flat column read) *)
  row_checks : (int -> bool) array; (* predicates on the step's table *)
  path_checks : path_check array; (* non-tree joins due after this step *)
  folds : compiled_fold array; (* trie level l + 1 narrows by folds.(l) *)
  located : Index.located;
      (* the locate buffer of the step's index ([isect.itrie] when it folds
         edges), reused every walk *)
  cost : int; (* that index's [count_cost] *)
}

type prepared = {
  plan : Walk_plan.t;
  start : start_sampler;
  start_count : int;
  start_cost : int; (* a start's charge: the tuple fetch, plus the locate for Olken *)
  start_pred : Query.predicate option; (* the Olken-sampled predicate, if any *)
  start_preds : Query.predicate list; (* checked after sampling the start *)
  start_checks : (int -> bool) array; (* compiled [start_preds] *)
  scan_start_checks : (int -> bool) array;
      (* every start-table predicate, the Olken-sampled one too: a scanned
         start row is not drawn from that predicate's range *)
  start_path_checks : path_check array; (* non-tree joins due at the start *)
  steps : compiled_step array;
  extract : int array -> float; (* compiled aggregate expression *)
  eager : bool;
  emit : (Wj_obs.Event.t -> unit) option; (* the sink's typed events *)
  stats : instr option;
  trace : Wj_obs.Trace.t option; (* full-tracing span buffer, off by default *)
  mutable last_steps : int;
  mutable phase_cost : int; (* abstract cost of the most recent phase *)
  factor : factor; (* HT factor of the most recent [Advanced] phase *)
  path : int array; (* the bound rows of the current walk, reused every walk *)
}

(* Choose the most selective Olken-sampleable predicate on the start table;
   the remaining predicates stay as post-sampling checks.  When two
   candidates have the same qualifying range count, the tie breaks
   deterministically to the one appearing first in the query's predicate
   list ([Query.predicates_on] preserves that order): a candidate only
   replaces the incumbent when its count is strictly smaller. *)
let choose_start q registry pos =
  let table = q.Query.tables.(pos) in
  let preds = Query.predicates_on q pos in
  let candidates =
    List.filter_map
      (fun p ->
        match Query.sargable_range p with
        | None -> None
        | Some (column, lo, hi) ->
          Option.map
            (fun index ->
              let located = Index.locator index in
              Index.locate_range located ~lo ~hi;
              (p, index, located))
            (Registry.find registry ~pos ~column))
      preds
  in
  match candidates with
  | [] -> (Uniform { table }, Table.length table, 1, None, preds)
  | first :: rest ->
    let count (_, _, l) = Index.located_count l in
    let best =
      List.fold_left
        (fun acc cand -> if count cand < count acc then cand else acc)
        first rest
    in
    let p, index, located = best in
    ( Olken located,
      Index.located_count located,
      1 + Index.count_cost index ~range:true,
      Some p,
      List.filter (fun p' -> p' != p) preds )

let prepare ?(eager_checks = true) ?(sink = Wj_obs.Sink.noop) q registry
    (plan : Walk_plan.t) =
  let kq = Query.k q in
  let emit =
    if Wj_obs.Sink.wants_events sink then
      Some (fun ev -> Wj_obs.Sink.emit sink ev)
    else None
  in
  let metrics = Wj_obs.Sink.metrics sink in
  let stats =
    match metrics with None -> None | Some m -> Some (instr_of_metrics m ~k:kq)
  in
  let edge_label (c : Query.join_cond) =
    Printf.sprintf "%s~%s" q.Query.names.(fst c.left) q.Query.names.(fst c.right)
  in
  let edge_counter label =
    match metrics with
    | None -> None
    | Some m -> Some (Wj_obs.Metrics.counter m ("walker.rejects.nontree." ^ label))
  in
  let rank = Array.make kq 0 in
  Array.iteri (fun i pos -> rank.(pos) <- i) plan.order;
  let checks_at = Array.make kq [] in
  List.iter
    (fun (c : Query.join_cond) ->
      let at =
        if eager_checks then max rank.(fst c.left) rank.(fst c.right) else kq - 1
      in
      checks_at.(at) <- c :: checks_at.(at))
    plan.nontree;
  let compiled_checks_at =
    Array.map
      (fun cs ->
        Array.of_list
          (List.map
             (fun c ->
               let label = edge_label c in
               {
                 pc_check = Query.compile_join q c;
                 pc_label = label;
                 pc_counter = edge_counter label;
               })
             cs))
      checks_at
  in
  let start, start_count, start_cost, start_pred, start_preds =
    choose_start q registry plan.order.(0)
  in
  let compile_fold (f : Walk_plan.fold) =
    let (other, col), label = (f.oriented.Query.left, edge_label f.edge) in
    let f_lo, f_hi =
      match f.oriented.Query.op with
      | Query.Eq -> (0, 0)
      | Query.Band { lo; hi } -> (lo, hi)
    in
    {
      f_other = other;
      f_key = Query.int_key_reader q ~pos:other ~col;
      f_lo;
      f_hi;
      f_label = label;
      f_counter = edge_counter label;
    }
  in
  let steps =
    Array.mapi
      (fun i (step : Walk_plan.step) ->
        let _, lcol = step.cond.Query.left in
        let index, folds =
          match step.isect with
          | None -> (step.index, [||])
          | Some { itrie; folds } -> (itrie, Array.of_list (List.map compile_fold folds))
        in
        {
          step;
          key_of_parent = Query.int_key_reader q ~pos:step.parent ~col:lcol;
          row_checks = Query.compile_predicates q step.into;
          path_checks = compiled_checks_at.(i + 1);
          folds;
          located = Index.locator index;
          cost =
            Index.count_cost index
              ~range:(match step.cond.op with Query.Eq -> false | Query.Band _ -> true);
        })
      plan.steps
  in
  {
    plan;
    start;
    start_count;
    start_cost;
    start_pred;
    start_preds;
    start_checks = Array.of_list (List.map (Query.compile_predicate q) start_preds);
    scan_start_checks = Query.compile_predicates q plan.order.(0);
    start_path_checks = compiled_checks_at.(0);
    steps;
    extract = Query.compile_expr q;
    eager = eager_checks;
    emit;
    stats;
    trace = Wj_obs.Sink.trace sink;
    last_steps = 0;
    phase_cost = 0;
    factor = { value = 0.0 };
    path = Array.make kq (-1);
  }

let start_cardinality t = t.start_count
let uses_olken_start t = match t.start with Olken _ -> true | Uniform _ -> false
let start_predicate t = t.start_pred

let[@inline] note_row_access t =
  match t.stats with None -> () | Some s -> Counter.incr s.i_row_accesses

let[@inline] note_index_probe t =
  (match t.stats with None -> () | Some s -> Counter.incr s.i_index_probes);
  (* Probes become instants, not spans: their wall durations are below
     clock resolution, while their count and position are what a timeline
     view needs.  The abstract cost lives in walker.phase_cost. *)
  match t.trace with
  | None -> ()
  | Some tr -> Wj_obs.Trace.instant tr ~cat:"walker" "walker.index_probe"

let[@inline] note_walk_started t =
  match t.emit with None -> () | Some f -> f Wj_obs.Event.Walk_started

let record_outcome t ~cost outcome =
  (match t.stats with
  | None -> ()
  | Some s -> (
    Counter.incr s.i_walks;
    match outcome with
    | Success _ -> Counter.incr s.i_successes
    | Failure { depth } ->
      Counter.incr s.i_failures;
      Histogram.observe s.i_fail_depth depth));
  match t.emit with
  | None -> ()
  | Some f -> (
    match outcome with
    | Success _ -> f (Wj_obs.Event.Walk_succeeded { cost })
    | Failure { depth } -> f (Wj_obs.Event.Walk_failed { depth; cost }))

(* The sampled start row, or -1 when there is none to sample. *)
let sample_start t prng =
  match t.start with
  | Uniform { table } ->
    let n = Table.length table in
    if n = 0 then -1 else Prng.int prng n
  | Olken located ->
    if t.start_count = 0 then -1
    else Index.located_nth located (Prng.int prng t.start_count)

(* Short-circuiting conjunction over compiled checks (the array preserves
   the predicate-list order the boxed path evaluated in).  Loops, not
   recursive closures, so a check allocates nothing. *)
let all_row_checks (checks : (int -> bool) array) row =
  let n = Array.length checks in
  let i = ref 0 in
  while !i < n && checks.(!i) row do
    incr i
  done;
  !i = n

(* Index of the first failing non-tree check, or -1 when all pass — the
   failing edge is what the per-edge reject attribution charges. *)
let first_failing_check (checks : path_check array) path =
  let n = Array.length checks in
  let i = ref 0 in
  while !i < n && checks.(!i).pc_check path do
    incr i
  done;
  if !i = n then -1 else !i

(* Attribute a non-tree reject: aggregate counter, the edge's own counter,
   and (when the sink wants events) a [Nontree_reject] with the label. *)
let note_nontree_reject t ~pos ~label ~counter =
  (match t.stats with
  | None -> ()
  | Some s ->
    Counter.incr s.i_reject_nontree;
    (match counter with None -> () | Some c -> Counter.incr c));
  match t.emit with
  | None -> ()
  | Some f -> f (Wj_obs.Event.Nontree_reject { pos; edge = label })

(* ---- Step-granular phases of [walk] ----------------------------------- *)

(* An empty neighbour set (or empty start): the walk dies unbound. *)
let reject_empty t =
  (match t.stats with None -> () | Some s -> Counter.incr s.i_reject_empty);
  Dead_unbound

(* Bind and vet the start tuple into [path].  The abstract cost of the
   attempt is left in [t.phase_cost], the start factor in [t.factor]. *)
let advance_start t prng path =
  t.phase_cost <- 0;
  let result =
    let row = sample_start t prng in
    if row < 0 then reject_empty t
    else begin
      t.phase_cost <- t.start_cost;
      let start_pos = t.plan.order.(0) in
      note_row_access t;
      path.(start_pos) <- row;
      if all_row_checks t.start_checks row then begin
        let fail = first_failing_check t.start_path_checks path in
        if fail < 0 then begin
          t.factor.value <- float_of_int t.start_count;
          Advanced
        end
        else begin
          let pc = t.start_path_checks.(fail) in
          note_nontree_reject t ~pos:start_pos ~label:pc.pc_label
            ~counter:pc.pc_counter;
          Dead_bound
        end
      end
      else begin
        (match t.stats with None -> () | Some s -> Counter.incr s.i_reject_pred);
        Dead_unbound
      end
    end
  in
  (match t.stats with
  | None -> ()
  | Some s ->
    Histogram.observe s.i_phase_attempts 0;
    Histogram.add s.i_phase_cost 0 t.phase_cost);
  result

(* Bind and vet a sampled candidate row.  [d] is the size of the set the
   row was drawn from — the step's HT factor. *)
let bind_and_vet t c path ~row ~d =
  let step = c.step in
  note_row_access t;
  path.(step.Walk_plan.into) <- row;
  if all_row_checks c.row_checks row then begin
    let fail = first_failing_check c.path_checks path in
    if fail < 0 then begin
      t.factor.value <- float_of_int d;
      Advanced
    end
    else begin
      let pc = c.path_checks.(fail) in
      note_nontree_reject t ~pos:step.Walk_plan.into ~label:pc.pc_label
        ~counter:pc.pc_counter;
      Dead_bound
    end
  end
  else begin
    (match t.stats with None -> () | Some s -> Counter.incr s.i_reject_pred);
    Dead_unbound
  end

(* Narrow the located span by each folded edge, at trie level l + 1 for
   fold l: the index of the first fold that empties it, or -1. *)
let narrow_folds folds located path =
  let n = Array.length folds in
  let l = ref 0 and failed = ref (-1) in
  while !failed < 0 && !l < n do
    let f = folds.(!l) in
    let ov = f.f_key path.(f.f_other) in
    Index.narrow located ~level:(!l + 1) ~lo:(ov + f.f_lo) ~hi:(ov + f.f_hi);
    if Index.located_count located = 0 then failed := !l else incr l
  done;
  !failed

(* Probe the step's index from the already-bound parent row, sample one
   neighbour uniformly, bind and vet it.  The one step path: locate the
   parent key's neighbour span once, narrow it by every folded edge
   (none on a plain step), read d off the span and select the drawn row
   out of it, so a step is charged its index's [count_cost + 1].  An
   empty span consumes no PRNG draw — the walk is dead either way, and
   plans stay internally deterministic (variant plans draw differently
   from the base plan, as any two distinct plans do). *)
let advance_step t prng path i =
  let c = t.steps.(i) in
  let step = c.step in
  let v = c.key_of_parent path.(step.Walk_plan.parent) in
  note_index_probe t;
  t.phase_cost <- c.cost;
  let located = c.located in
  Query.locate_join step.cond located v;
  let result =
    if Index.located_count located = 0 then reject_empty t
    else begin
      let failed = narrow_folds c.folds located path in
      if failed >= 0 then begin
        (* The folded edge has no satisfying neighbour: a non-tree reject
           caught before sampling, charged to that edge. *)
        let f = c.folds.(failed) in
        note_nontree_reject t ~pos:step.into ~label:f.f_label ~counter:f.f_counter;
        Dead_unbound
      end
      else begin
        let d = Index.located_count located in
        let row = Index.located_nth located (Prng.int prng d) in
        t.phase_cost <- c.cost + 1;
        bind_and_vet t c path ~row ~d
      end
    end
  in
  (match t.stats with
  | None -> ()
  | Some s ->
    Histogram.observe s.i_phase_attempts (i + 1);
    Histogram.add s.i_phase_cost (i + 1) t.phase_cost);
  result

let walk_impl t prng =
  let path = t.path in
  (* Bind and vet the start tuple. *)
  match advance_start t prng path with
  | Dead_unbound ->
    t.last_steps <- t.phase_cost;
    Failure { depth = 0 }
  | Dead_bound ->
    t.last_steps <- t.phase_cost;
    Failure { depth = 1 }
  | Advanced ->
    let steps = ref t.phase_cost in
    let depth = ref 1 in
    let inv_p = ref t.factor.value in
    let ok = ref true in
    let nsteps = Array.length t.steps in
    let i = ref 0 in
    while !ok && !i < nsteps do
      (match advance_step t prng path !i with
      | Advanced ->
        inv_p := !inv_p *. t.factor.value;
        incr depth
      | Dead_unbound -> ok := false
      | Dead_bound ->
        incr depth;
        ok := false);
      steps := !steps + t.phase_cost;
      incr i
    done;
    t.last_steps <- !steps;
    if !ok then Success { path; inv_p = !inv_p } else Failure { depth = !depth }

let walk t prng =
  note_walk_started t;
  let outcome = walk_impl t prng in
  record_outcome t ~cost:t.last_steps outcome;
  outcome

(* ---- Exhaustive scan: the same compiled steps, every row of each span -- *)

let scan t path ~start_row emit =
  let rows = ref 1 in
  let nsteps = Array.length t.steps in
  let rec descend i =
    if i = nsteps then emit path
    else begin
      let c = t.steps.(i) in
      let step = c.step in
      let located = c.located in
      Query.locate_join step.cond located (c.key_of_parent path.(step.Walk_plan.parent));
      (* Deeper steps locate into their own buffers, so this span holds
         for the whole loop. *)
      if Index.located_count located > 0 && narrow_folds c.folds located path < 0 then
        for r = 0 to Index.located_count located - 1 do
          let row = Index.located_nth located r in
          incr rows;
          path.(step.into) <- row;
          if all_row_checks c.row_checks row && first_failing_check c.path_checks path < 0
          then descend (i + 1)
        done
    end
  in
  path.(t.plan.order.(0)) <- start_row;
  if
    all_row_checks t.scan_start_checks start_row
    && first_failing_check t.start_path_checks path < 0
  then descend 0;
  !rows

let steps_of_last_walk t = t.last_steps
let value_of t path = t.extract path
