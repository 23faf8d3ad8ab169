module Query = Wj_core.Query
module Table = Wj_storage.Table
module Index = Wj_index.Index
module Estimator = Wj_stats.Estimator
module Target = Wj_stats.Target
module Timer = Wj_util.Timer
module Prng = Wj_util.Prng
module Vec = Wj_util.Vec

type mode = Random_order | Index_assisted

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}

type outcome = {
  final : report;
  history : report list;
  mode : mode;
}

(* How a table's random tuples are produced. *)
type source =
  | Shuffled of { perm : int array; mutable cursor : int }
  | Sampled of Index.located (* the predicate's range, located once *)

type pool = {
  pos : int;
  source : source;
  population : float; (* N_i (or qualifying N'_i for Sampled) *)
  mutable attempts : int; (* n_i *)
  rows : int Vec.t; (* qualifying pooled rows *)
  s_sum : float Vec.t; (* per pooled row: sum of expr over combos *)
  s_cnt : float Vec.t; (* per pooled row: number of combos *)
  lookups : (int, (int, int Vec.t) Hashtbl.t) Hashtbl.t;
      (* join column -> (value -> pool indices) *)
}

(* Tree used to enumerate combinations containing a new tuple of [root]:
   BFS of the query graph rooted there. *)
type combo_step = {
  into : int;
  parent : int;
  parent_col : int;
  into_col : int;
}

let build_traversal q root =
  let kq = Query.k q in
  let visited = Array.make kq false in
  visited.(root) <- true;
  let steps = ref [] in
  let used = ref [] in
  let queue = Queue.create () in
  Queue.push root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun (c : Query.join_cond) ->
        let (lp, lc), (rp, rc) = (c.left, c.right) in
        let other, vcol, ocol =
          if lp = v then (rp, lc, rc) else if rp = v then (lp, rc, lc) else (-1, 0, 0)
        in
        if other >= 0 && not visited.(other) then begin
          visited.(other) <- true;
          used := c :: !used;
          steps := { into = other; parent = v; parent_col = vcol; into_col = ocol } :: !steps;
          Queue.push other queue
        end)
      q.Query.joins
  done;
  let extra = List.filter (fun c -> not (List.memq c !used)) q.Query.joins in
  (Array.of_list (List.rev !steps), extra)

let make_pool q registry mode prng pos =
  let table = q.Query.tables.(pos) in
  let n = Table.length table in
  let sargable =
    match mode with
    | Random_order -> None
    | Index_assisted ->
      List.find_map
        (fun p ->
          match Query.sargable_range p with
          | None -> None
          | Some (column, lo, hi) ->
            Option.map
              (fun index ->
                let located = Index.locator index in
                Index.locate_range located ~lo ~hi;
                located)
              (Wj_core.Registry.find registry ~pos ~column))
        (Query.predicates_on q pos)
  in
  let source, population =
    match sargable with
    | Some located -> (Sampled located, float_of_int (Index.located_count located))
    | None ->
      let perm = Array.init n Fun.id in
      Prng.shuffle prng perm;
      (Shuffled { perm; cursor = 0 }, float_of_int n)
  in
  {
    pos;
    source;
    population;
    attempts = 0;
    rows = Vec.create ();
    s_sum = Vec.create ();
    s_cnt = Vec.create ();
    lookups = Hashtbl.create 4;
  }

let pool_lookup pool col =
  match Hashtbl.find_opt pool.lookups col with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 64 in
    Hashtbl.add pool.lookups col h;
    h

let pool_add q pool row =
  let idx = Vec.length pool.rows in
  Vec.push pool.rows row;
  Vec.push pool.s_sum 0.0;
  Vec.push pool.s_cnt 0.0;
  Hashtbl.iter
    (fun col h ->
      let v = Table.int_cell q.Query.tables.(pool.pos) row col in
      match Hashtbl.find_opt h v with
      | Some vec -> Vec.push vec idx
      | None ->
        let vec = Vec.create () in
        Vec.push vec idx;
        Hashtbl.add h v vec)
    pool.lookups

(* Draw the next tuple; [None] when a shuffled source is exhausted. *)
let next_tuple prng pool =
  match pool.source with
  | Shuffled s ->
    if s.cursor >= Array.length s.perm then None
    else begin
      let row = s.perm.(s.cursor) in
      s.cursor <- s.cursor + 1;
      pool.attempts <- pool.attempts + 1;
      Some row
    end
  | Sampled located ->
    let count = Index.located_count located in
    if count = 0 then None
    else begin
      pool.attempts <- pool.attempts + 1;
      Some (Index.located_nth located (Prng.int prng count))
    end

let check_agg q =
  match q.Query.agg with
  | Estimator.Sum | Estimator.Count | Estimator.Avg -> ()
  | Estimator.Variance | Estimator.Stdev ->
    invalid_arg "Ripple.run: only SUM, COUNT and AVG are supported"

let check_joins q =
  List.iter
    (fun (c : Query.join_cond) ->
      match c.op with
      | Query.Eq -> ()
      | Query.Band _ -> invalid_arg "Ripple.run: only equality joins are supported")
    q.Query.joins

let run ?(seed = 99) ?(mode = Random_order) ?target ?(max_time = 10.0)
    ?(max_rounds = max_int) ?(report_every = infinity) ?on_report ?clock ?tuple_tracer
    q registry =
  check_agg q;
  check_joins q;
  let clock = match clock with Some c -> c | None -> Timer.wall () in
  let prng = Prng.create (seed lxor 0x52504C) in  (* "RPL" *)
  let kq = Query.k q in
  let pools = Array.init kq (fun pos -> make_pool q registry mode prng pos) in
  let traversals = Array.init kq (fun pos -> build_traversal q pos) in
  (* Register every join column in the lookup tables up front so pooled rows
     are indexed on all of them. *)
  List.iter
    (fun (c : Query.join_cond) ->
      let (lp, lc), (rp, rc) = (c.left, c.right) in
      ignore (pool_lookup pools.(lp) lc);
      ignore (pool_lookup pools.(rp) rc))
    q.Query.joins;
  let total_v = Wj_stats.Moments.kahan () in
  let combos = ref 0 in
  let path = Array.make kq (-1) in
  let pool_idx = Array.make kq (-1) in
  (* Enumerate combinations containing [row] (new at position [root]). *)
  let combine root row =
    let steps, extra = traversals.(root) in
    let nsteps = Array.length steps in
    Array.fill path 0 kq (-1);
    Array.fill pool_idx 0 kq (-1);
    path.(root) <- row;
    let root_sum = ref 0.0 and root_cnt = ref 0.0 in
    let rec descend i =
      if i = nsteps then begin
        if List.for_all (fun c -> Query.check_join q c path) extra then begin
          let v =
            match q.Query.agg with
            | Estimator.Count -> 1.0
            | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
              Query.eval_expr q path
          in
          incr combos;
          Wj_stats.Moments.kadd total_v v;
          for p = 0 to kq - 1 do
            if p <> root then begin
              let pl = pools.(p) and j = pool_idx.(p) in
              Vec.set pl.s_sum j (Vec.get pl.s_sum j +. v);
              Vec.set pl.s_cnt j (Vec.get pl.s_cnt j +. 1.0)
            end
          done;
          (* The root tuple is pooled after enumeration; return its
             accumulated contribution through the closure below. *)
          root_sum := !root_sum +. v;
          root_cnt := !root_cnt +. 1.0
        end
      end
      else begin
        let st = steps.(i) in
        let v = Table.int_cell q.Query.tables.(st.parent) path.(st.parent) st.parent_col in
        let h = pool_lookup pools.(st.into) st.into_col in
        match Hashtbl.find_opt h v with
        | None -> ()
        | Some cands ->
          Vec.iter
            (fun j ->
              path.(st.into) <- Vec.get pools.(st.into).rows j;
              pool_idx.(st.into) <- j;
              descend (i + 1))
            cands
      end
    in
    descend 0;
    (!root_sum, !root_cnt)
  in
  let scale_excluding excl =
    let s = ref 1.0 in
    Array.iter
      (fun pl ->
        if pl.pos <> excl && pl.attempts > 0 then
          s := !s *. (pl.population /. float_of_int pl.attempts))
      pools;
    !s
  in
  let scale_all () = scale_excluding (-1) in
  let estimate_sum_count () =
    let sc = scale_all () in
    (sc *. Wj_stats.Moments.ksum total_v, sc *. float_of_int !combos)
  in
  (* First-order variance: Var(Ỹ) ≈ Σ_i N_i² σ̂_i² / n_i with σ̂_i² the
     per-tuple contribution variance over the n_i attempts (zeros for
     non-qualifying or unpooled attempts). *)
  let variance_of select =
    let total = ref 0.0 in
    Array.iter
      (fun pl ->
        let n = pl.attempts in
        if n >= 2 then begin
          let rest = scale_excluding pl.pos in
          let s = ref 0.0 and s2 = ref 0.0 in
          for j = 0 to Vec.length pl.rows - 1 do
            let x = rest *. select pl j in
            s := !s +. x;
            s2 := !s2 +. (x *. x)
          done;
          let nf = float_of_int n in
          let var = (!s2 -. (!s *. !s /. nf)) /. (nf -. 1.0) in
          (* Shuffled sources sample without replacement: apply the finite
             population correction so the CI collapses at exhaustion. *)
          let fpc =
            match pl.source with
            | Shuffled _ -> Float.max 0.0 (1.0 -. (nf /. pl.population))
            | Sampled _ -> 1.0
          in
          total :=
            !total +. (pl.population *. pl.population *. Float.max 0.0 var *. fpc /. nf)
        end)
      pools;
    !total
  in
  let current () =
    let est_sum, est_cnt = estimate_sum_count () in
    match q.Query.agg with
    | Estimator.Sum ->
      (est_sum, sqrt (variance_of (fun pl j -> Vec.get pl.s_sum j)))
    | Estimator.Count ->
      (est_cnt, sqrt (variance_of (fun pl j -> Vec.get pl.s_cnt j)))
    | Estimator.Avg ->
      if !combos = 0 then (nan, infinity)
      else begin
        let r = Wj_stats.Moments.ksum total_v /. float_of_int !combos in
        (* Delta method on SUM/COUNT with per-table variance of the
           combination x - r*y. *)
        let var =
          variance_of (fun pl j -> Vec.get pl.s_sum j -. (r *. Vec.get pl.s_cnt j))
        in
        (r, sqrt var /. Float.abs (Float.max 1e-300 est_cnt))
      end
    | Estimator.Variance | Estimator.Stdev -> assert false
  in
  let z = Wj_util.Normal.z_of_confidence 0.95 in
  let make_report () =
    let est, sd = current () in
    {
      elapsed = Timer.elapsed clock;
      walks = pools.(0).attempts;
      tuples = Array.fold_left (fun a p -> a + p.attempts) 0 pools;
      successes = !combos;
      estimate = est;
      half_width = (if sd = infinity then infinity else z *. sd);
    }
  in
  let history = ref [] in
  let rounds = ref 0 in
  let exhausted = Array.make kq false in
  (* One driver step = one ripple round: every non-exhausted table retrieves
     its next random tuple and the new combinations are enumerated. *)
  let round () =
    incr rounds;
    for pos = 0 to kq - 1 do
      if not exhausted.(pos) then begin
        match next_tuple prng pools.(pos) with
        | None -> exhausted.(pos) <- true
        | Some row ->
          (match tuple_tracer with
          | None -> ()
          | Some f -> (
            match pools.(pos).source with
            | Shuffled s -> f ~pos ~slot:(s.cursor - 1) ~sequential:true
            | Sampled _ -> f ~pos ~slot:row ~sequential:false));
          if Query.row_passes q pos row then begin
            let s, c = combine pos row in
            pool_add q pools.(pos) row;
            let j = Vec.length pools.(pos).rows - 1 in
            Vec.set pools.(pos).s_sum j s;
            Vec.set pools.(pos).s_cnt j c
          end
      end
    done
  in
  let module Driver = Wj_core.Engine.Driver in
  (* Target and report checks are throttled to every 256 rounds: a report
     costs O(pool sizes).  Exhaustion of every shuffled source reads as
     cancellation, polled every round. *)
  let (_ : Driver.stop_reason) =
    Driver.run
      ~polls:{ Driver.target_mask = 255; report_mask = 255; cancel_mask = 0 }
      ?target_reached:
        (Option.map
           (fun tgt () ->
             let r = make_report () in
             Target.reached tgt ~estimate:r.estimate ~half_width:r.half_width)
           target)
      ~should_stop:(fun () -> Array.for_all Fun.id exhausted)
      ~max_walks:max_rounds ~report_every
      ~on_report:(fun () ->
        let r = make_report () in
        history := r :: !history;
        match on_report with None -> () | Some f -> f r)
      ~max_time ~clock
      ~walks:(fun () -> !rounds)
      ~step:round ()
  in
  { final = make_report (); history = List.rev !history; mode }
