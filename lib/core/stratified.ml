module Estimator = Wj_stats.Estimator
module Timer = Wj_util.Timer
module Value = Wj_storage.Value
module Trie = Wj_index.Trie

type allocation = Equal | Proportional | Adaptive

type group_state = {
  key : Value.t;
  group_rows : int;
  report : Online.report;
}

type outcome = {
  strata : group_state list;
  total_walks : int;
  elapsed : float;
}

(* Distinct keys and their multiplicities, one level-0 run of the trie at
   a time: O(#groups * log n). *)
let distinct_keys trie =
  let c = Trie.cursor trie ~level:0 ~lo:0 ~hi:(Trie.length trie) in
  let rec collect acc =
    if Trie.at_end c then List.rev acc
    else begin
      let lo, hi = Trie.child c in
      let key = Trie.key c in
      Trie.next c;
      collect ((key, hi - lo) :: acc)
    end
  in
  collect []

type stratum = {
  skey : int;
  rows : int;
  est : Estimator.t;
  prepared : Walker.prepared;
  mutable cached_rel_hw : float;
}

let confidence = 0.95

let run ?(seed = 31) ?(allocation = Adaptive) ?(max_time = 5.0) ?max_walks q registry =
  let pos, col =
    match q.Query.group_by with
    | Some gb -> gb
    | None -> invalid_arg "Stratified.run: query has no GROUP BY"
  in
  let trie =
    match Registry.find registry ~pos ~column:col with
    | Some tr -> tr
    | None -> invalid_arg "Stratified.run: GROUP BY column has no index"
  in
  let plans =
    List.filter
      (fun (p : Walk_plan.t) -> p.order.(0) = pos)
      (Walk_plan.enumerate q registry)
  in
  if plans = [] then
    invalid_arg "Stratified.run: no walk plan starts at the GROUP BY table";
  let clock = Timer.wall () in
  let trials, prng = Online.streams (seed lxor 0x535452) (* "STR" *) in
  let plan =
    match plans with
    | [ p ] -> p
    | _ -> (Optimizer.choose ~plans q registry trials).best_plan
  in
  let strata =
    distinct_keys trie
    |> List.map (fun (key, rows) ->
           (* The group membership becomes a start predicate: the walker's
              Olken start confines every walk to this stratum. *)
           let q_g =
             {
               q with
               Query.predicates =
                 Query.Cmp { table = pos; column = col; op = Query.Ceq; value = Value.Int key }
                 :: q.Query.predicates;
               group_by = None;
             }
           in
           {
             skey = key;
             rows;
             est = Estimator.create q.Query.agg;
             prepared = Walker.prepare q_g registry plan;
             cached_rel_hw = infinity;
           })
    |> Array.of_list
  in
  let m = Array.length strata in
  if m = 0 then invalid_arg "Stratified.run: the GROUP BY table is empty";
  let total_rows = Array.fold_left (fun a s -> a + s.rows) 0 strata in
  let total = ref 0 in
  let pick () =
    match allocation with
    | Equal -> !total mod m
    | Proportional ->
      (* Largest-remainder: the stratum furthest below its row share. *)
      let best = ref 0 and best_deficit = ref neg_infinity in
      Array.iteri
        (fun i s ->
          let share = float_of_int s.rows /. float_of_int total_rows in
          let deficit = (share *. float_of_int !total) -. float_of_int (Estimator.n s.est) in
          if deficit > !best_deficit then begin
            best := i;
            best_deficit := deficit
          end)
        strata;
      !best
    | Adaptive ->
      (* Serve the stratum with the widest relative CI; refresh the cached
         widths periodically (they move slowly). *)
      if !total mod 32 = 0 then
        Array.iter
          (fun s ->
            let e = Estimator.estimate s.est in
            let hw = Estimator.half_width s.est ~confidence in
            s.cached_rel_hw <-
              (if Float.is_finite e && e <> 0.0 && Float.is_finite hw then
                 hw /. Float.abs e
               else infinity))
          strata;
      let best = ref 0 and widest = ref neg_infinity in
      Array.iteri
        (fun i s ->
          if s.cached_rel_hw > !widest then begin
            best := i;
            widest := s.cached_rel_hw
          end)
        strata;
      !best
  in
  let stop () =
    Timer.elapsed clock >= max_time
    || match max_walks with Some mw -> !total >= mw | None -> false
  in
  while not (stop ()) do
    let s = strata.(pick ()) in
    Engine.feed q s.prepared s.est (Walker.walk s.prepared prng);
    incr total
  done;
  let elapsed = Timer.elapsed clock in
  {
    strata =
      Array.to_list strata
      |> List.map (fun s ->
             {
               key = Value.Int s.skey;
               group_rows = s.rows;
               report =
                 {
                   Online.elapsed;
                   walks = Estimator.n s.est;
                   successes = Estimator.successes s.est;
                   tuples = 0;
                   estimate = Estimator.estimate s.est;
                   half_width = Estimator.half_width s.est ~confidence;
                 };
             })
      |> List.sort (fun a b -> Value.compare a.key b.key);
    total_walks = !total;
    elapsed;
  }
