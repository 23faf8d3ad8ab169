module Index = Wj_index.Index
module Table = Wj_storage.Table
module Value = Wj_storage.Value
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
  | Olken of { index : Index.t; lo : int; hi : int }

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

(* Compiled constraint pre-intersection: the step's trie narrowed level by
   level — level 0 by the tree-edge key, level l+1 by folded edge l.  Keys
   of the already-bound other sides are flat column reads. *)
type compiled_isec = {
  ci_trie : Wj_index.Trie.t;
  ci_other : int array; (* per fold: bound position supplying the key *)
  ci_key : (int -> int) array; (* per fold: other row -> join key *)
  ci_lo : int array; (* per fold: key-range delta (Eq: 0) *)
  ci_hi : int array;
  ci_labels : string array;
  ci_counters : Counter.t option array;
  ci_cost : int; (* abstract probe cost of the whole narrow chain *)
}

(* Per-step compiled form: everything a step touches resolved to typed
   column reads, so advancing a walk performs no Value.t allocation or
   matching. *)
type compiled_step = {
  step : Walk_plan.step;
  key_of_parent : int -> int; (* parent row -> join key (flat column read) *)
  row_checks : (int -> bool) array; (* predicates on the step's table *)
  path_checks : path_check array; (* non-tree joins due after this step *)
  isect : compiled_isec option;
  located : Index.located; (* the step's locate buffer, reused every walk *)
}

type prepared = {
  query : Query.t;
  plan : Walk_plan.t;
  start : start_sampler;
  start_count : int;
  start_pred : Query.predicate option; (* the Olken-sampled predicate, if any *)
  start_preds : Query.predicate list; (* checked after sampling the start *)
  start_checks : (int -> bool) array; (* compiled [start_preds] *)
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
}

(* Integer range implied by a sargable predicate, if any. *)
let sargable_range (p : Query.predicate) =
  match p with
  | Query.Cmp { column; op; value = Value.Int v; _ } -> (
    match op with
    | Query.Ceq -> Some (column, v, v)
    | Query.Cle -> Some (column, min_int, v)
    | Query.Clt -> Some (column, min_int, v - 1)
    | Query.Cge -> Some (column, v, max_int)
    | Query.Cgt -> Some (column, v + 1, max_int)
    | Query.Cne -> None)
  | Query.Between { column; lo = Value.Int lo; hi = Value.Int hi; _ } ->
    Some (column, lo, hi)
  | Query.Cmp _ | Query.Between _ | Query.Member _ -> None

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
        match sargable_range p with
        | None -> None
        | Some (column, lo, hi) -> (
          match Registry.find registry ~pos ~column with
          | Some index when Index.supports_range index ->
            Some (p, index, lo, hi, Index.count_range index ~lo ~hi)
          | Some _ | None -> None))
      preds
  in
  match candidates with
  | [] -> (Uniform { table }, Table.length table, None, preds)
  | first :: rest ->
    let best =
      List.fold_left
        (fun ((_, _, _, _, best_c) as acc) ((_, _, _, _, c) as cand) ->
          if c < best_c then cand else acc)
        first rest
    in
    let p, index, lo, hi, count = best in
    (Olken { index; lo; hi }, count, Some p, List.filter (fun p' -> p' != p) preds)

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
  let start, start_count, start_pred, start_preds =
    choose_start q registry plan.order.(0)
  in
  let compile_isect (step : Walk_plan.step) =
    match step.isect with
    | None -> None
    | Some { itrie; folds } ->
      let tr =
        match Wj_index.Index.as_trie itrie with
        | Some tr -> tr
        | None -> invalid_arg "Walker.prepare: intersect index is not a trie"
      in
      let folds = Array.of_list folds in
      let labels = Array.map (fun (f : Walk_plan.fold) -> edge_label f.edge) folds in
      Some
        {
          ci_trie = tr;
          ci_other =
            Array.map (fun (f : Walk_plan.fold) -> fst f.oriented.Query.left) folds;
          ci_key =
            Array.map
              (fun (f : Walk_plan.fold) ->
                Query.int_key_reader q ~pos:(fst f.oriented.Query.left)
                  ~col:(snd f.oriented.Query.left))
              folds;
          ci_lo =
            Array.map
              (fun (f : Walk_plan.fold) ->
                match f.oriented.Query.op with
                | Query.Eq -> 0
                | Query.Band { lo; _ } -> lo)
              folds;
          ci_hi =
            Array.map
              (fun (f : Walk_plan.fold) ->
                match f.oriented.Query.op with
                | Query.Eq -> 0
                | Query.Band { hi; _ } -> hi)
              folds;
          ci_labels = labels;
          ci_counters = Array.map edge_counter labels;
          ci_cost = Wj_index.Index.count_cost itrie;
        }
  in
  let steps =
    Array.mapi
      (fun i (step : Walk_plan.step) ->
        let _, lcol = step.cond.Query.left in
        {
          step;
          key_of_parent = Query.int_key_reader q ~pos:step.parent ~col:lcol;
          row_checks = Query.compile_predicates q step.into;
          path_checks = compiled_checks_at.(i + 1);
          isect = compile_isect step;
          located = Index.locator step.index;
        })
      plan.steps
  in
  {
    query = q;
    plan;
    start;
    start_count;
    start_pred;
    start_preds;
    start_checks = Array.of_list (List.map (Query.compile_predicate q) start_preds);
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
  }

let start_cardinality t = t.start_count
let uses_olken_start t = match t.start with Olken _ -> true | Uniform _ -> false
let start_predicate t = t.start_pred

(* The event is only constructed inside the [Some] branch: an untraced,
   unmetered walker allocates nothing here. *)
let[@inline] note_row_access t pos row =
  (match t.stats with None -> () | Some s -> Counter.incr s.i_row_accesses);
  match t.emit with
  | None -> ()
  | Some f -> f (Wj_obs.Event.Row_access { pos; row })

let[@inline] note_index_probe t pos cost =
  (match t.stats with None -> () | Some s -> Counter.incr s.i_index_probes);
  (* Probes become instants, not spans: their wall durations are below
     clock resolution, while their count and position are what a timeline
     view needs.  The abstract cost lives in walker.phase_cost. *)
  (match t.trace with
  | None -> ()
  | Some tr -> Wj_obs.Trace.instant tr ~cat:"walker" "walker.index_probe");
  match t.emit with
  | None -> ()
  | Some f -> f (Wj_obs.Event.Index_probe { pos; cost })

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
  | Olken { index; lo; hi } ->
    if t.start_count = 0 then -1
    else Index.nth_range index ~lo ~hi (Prng.int prng t.start_count)

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
      t.phase_cost <-
        (match t.start with
        | Uniform _ -> 1
        | Olken { index; _ } -> 1 + Index.probe_cost index);
      let start_pos = t.plan.order.(0) in
      note_row_access t start_pos row;
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

(* Bind and vet a sampled candidate row (shared by the plain and the
   pre-intersected step paths).  [d] is the size of the set the row was
   drawn from — the step's HT factor. *)
let bind_and_vet t c path ~row ~d =
  let step = c.step in
  note_row_access t step.Walk_plan.into row;
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

(* Probe the step's index from the already-bound parent row, sample one
   neighbour uniformly, bind and vet it.  A plain step locates its
   neighbour set once, reads d off the locate and selects the drawn row
   out of it, so it is charged [count_cost + resolve_cost + 1]. *)
let advance_step t prng path i =
  let c = t.steps.(i) in
  let step = c.step in
  let v = c.key_of_parent path.(step.Walk_plan.parent) in
  let result =
    match c.isect with
    | None ->
      let cond = step.cond in
      let cost = Index.count_cost step.index in
      note_index_probe t step.into cost;
      t.phase_cost <- cost;
      let located = c.located in
      (match cond.op with
      | Query.Eq -> Index.locate_eq located v
      | Query.Band _ ->
        Index.locate_range located
          ~lo:(Query.join_key_lo cond ~from_left:true v)
          ~hi:(Query.join_key_hi cond ~from_left:true v));
      let d = Index.located_count located in
      if d = 0 then reject_empty t
      else begin
        let row = Index.located_nth located (Prng.int prng d) in
        t.phase_cost <- cost + Index.resolve_cost step.index + 1;
        bind_and_vet t c path ~row ~d
      end
    | Some ci ->
      (* Constraint pre-intersection: narrow the trie by the tree key,
         then by each folded non-tree edge's key, and sample uniformly
         from the surviving slot range.  An empty range consumes no PRNG
         draw — the walk is dead either way, and plans stay internally
         deterministic (variant plans draw differently from the base
         plan, as any two distinct plans do). *)
      note_index_probe t step.into ci.ci_cost;
      t.phase_cost <- ci.ci_cost;
      let tr = ci.ci_trie in
      let n = Wj_index.Trie.length tr in
      let lo = Wj_index.Trie.narrow_start tr ~level:0 ~lo:0 ~hi:n v in
      let hi = Wj_index.Trie.upper_bound tr ~level:0 ~lo ~hi:n v in
      if lo >= hi then reject_empty t
      else begin
        let nfolds = Array.length ci.ci_key in
        let slo = ref lo and shi = ref hi in
        let failed = ref (-1) in
        let l = ref 0 in
        while !failed < 0 && !l < nfolds do
          let ov = ci.ci_key.(!l) path.(ci.ci_other.(!l)) in
          let level = !l + 1 in
          let nlo =
            Wj_index.Trie.narrow_start tr ~level ~lo:!slo ~hi:!shi (ov + ci.ci_lo.(!l))
          in
          let nhi =
            Wj_index.Trie.upper_bound tr ~level ~lo:nlo ~hi:!shi (ov + ci.ci_hi.(!l))
          in
          if nlo >= nhi then failed := !l
          else begin
            slo := nlo;
            shi := nhi;
            incr l
          end
        done;
        if !failed >= 0 then begin
          (* The folded edge has no satisfying neighbour: a non-tree
             reject caught before sampling, charged to that edge. *)
          note_nontree_reject t ~pos:step.into ~label:ci.ci_labels.(!failed)
            ~counter:ci.ci_counters.(!failed);
          Dead_unbound
        end
        else begin
          let d = !shi - !slo in
          let row = Wj_index.Trie.row tr (!slo + Prng.int prng d) in
          t.phase_cost <- t.phase_cost + 1;
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
  let path = Array.make (Query.k t.query) (-1) in
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
    (* Walk the remaining tables (plans over a decomposition component have
       fewer steps than k - 1). *)
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

let steps_of_last_walk t = t.last_steps
let value_of t path = t.extract path
