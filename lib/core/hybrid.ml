module Estimator = Wj_stats.Estimator
module Timer = Wj_util.Timer
module Prng = Wj_util.Prng
module Vec = Wj_util.Vec

type config = {
  replicates : int;
  max_paths_per_component : int;
  trial_walks_per_plan : int;
}

let default_config =
  { replicates = 8; max_paths_per_component = 512; trial_walks_per_plan = 50 }

type outcome = {
  estimate : float;
  half_width : float;
  components : Decompose.component list;
  component_plans : string list;
  rounds : int;
  walks : int;
  elapsed : float;
  replicate_estimates : float array;
  final : Wj_obs.Progress.t;
}

type stored_path = { rows : int array; inv_p : float }

(* Per-replicate, per-component sampling state. *)
type comp_state = {
  paths : stored_path Vec.t;
  mutable comp_walks : int;
  mutable frozen : bool;
}

type replicate = {
  states : comp_state array;
  (* Kahan sums over all cross-component combinations that satisfy the
     cross conditions: weight, weight*value, weight*value^2. *)
  s_w : Wj_stats.Moments.kahan;
  s_wv : Wj_stats.Moments.kahan;
  s_wv2 : Wj_stats.Moments.kahan;
}

(* Pick the plan with the best (success rate / cost) after a few trial
   walks; component walks cannot evaluate the query expression, so the full
   optimizer objective does not apply. *)
let choose_component_plan ~trials q registry prng members =
  let plans = Walk_plan.enumerate_subset q registry ~members in
  if plans = [] then
    invalid_arg "Hybrid.run_session: a decomposition component admits no walk plan";
  let score plan =
    let prepared = Walker.prepare q registry plan in
    let successes = ref 0 and steps = ref 0 in
    for _ = 1 to trials do
      (match Walker.walk prepared prng with
      | Walker.Success _ -> incr successes
      | Walker.Failure _ -> ());
      steps := !steps + Walker.steps_of_last_walk prepared
    done;
    float_of_int (!successes + 1) /. float_of_int (max 1 !steps)
  in
  List.fold_left
    (fun (best, best_score) plan ->
      let s = score plan in
      if s > best_score then (plan, s) else (best, best_score))
    (List.hd plans, score (List.hd plans))
    (List.tl plans)
  |> fst

let replicate_estimate q rep =
  let denom =
    Array.fold_left
      (fun acc st -> acc *. float_of_int (max 1 st.comp_walks))
      1.0 rep.states
  in
  let w = Wj_stats.Moments.ksum rep.s_w /. denom in
  let wv = Wj_stats.Moments.ksum rep.s_wv /. denom in
  let wv2 = Wj_stats.Moments.ksum rep.s_wv2 /. denom in
  match q.Query.agg with
  | Estimator.Sum -> wv
  | Estimator.Count -> w
  | Estimator.Avg -> if w = 0.0 then nan else wv /. w
  | Estimator.Variance ->
    if w = 0.0 then nan
    else begin
      let m1 = wv /. w in
      (wv2 /. w) -. (m1 *. m1)
    end
  | Estimator.Stdev ->
    if w = 0.0 then nan
    else begin
      let m1 = wv /. w in
      sqrt (Float.max 0.0 ((wv2 /. w) -. (m1 *. m1)))
    end

let run_session ?(config = default_config) ?(max_rounds = max_int)
    (cfg : Run_config.t) q registry =
  let clock = Run_config.clock_or_wall cfg in
  let sink = cfg.sink in
  let confidence = cfg.Run_config.confidence in
  let max_rounds =
    match cfg.Run_config.max_walks with Some m -> m | None -> max_rounds
  in
  let prng = Prng.create (cfg.Run_config.seed lxor 0x485942) in  (* "HYB" *)
  let graph = Join_graph.of_query q registry in
  let components = Decompose.decompose graph in
  let m = List.length components in
  let plans =
    List.map
      (fun (c : Decompose.component) ->
        choose_component_plan ~trials:config.trial_walks_per_plan q registry prng
          c.members)
      components
  in
  let prepared =
    Array.of_list (List.map (fun p -> Walker.prepare ~sink q registry p) plans)
  in
  if Wj_obs.Sink.wants_reports sink then
    List.iter
      (fun p ->
        Wj_obs.Sink.emit sink
          (Wj_obs.Event.Plan_chosen
             {
               description = Walk_plan.describe q p;
               granularity = Walk_plan.granularity p;
             }))
      plans;
  let cross_conds =
    let comp_of = Array.make (Query.k q) (-1) in
    List.iteri
      (fun ci (c : Decompose.component) ->
        List.iter (fun v -> comp_of.(v) <- ci) c.members)
      components;
    List.filter
      (fun (c : Query.join_cond) -> comp_of.(fst c.left) <> comp_of.(fst c.right))
      q.Query.joins
  in
  let kq = Query.k q in
  let new_replicate () =
    {
      states =
        Array.init m (fun _ ->
            { paths = Vec.create (); comp_walks = 0; frozen = false });
      s_w = Wj_stats.Moments.kahan ();
      s_wv = Wj_stats.Moments.kahan ();
      s_wv2 = Wj_stats.Moments.kahan ();
    }
  in
  let reps = Array.init config.replicates (fun _ -> new_replicate ()) in
  let scratch = Array.make kq (-1) in
  let members_arr =
    Array.of_list (List.map (fun (c : Decompose.component) -> c.members) components)
  in
  (* Fold the new path of component [ci] against every stored combination of
     the other components. *)
  let combine rep ci (new_path : stored_path) =
    let fill_members ci' rows =
      List.iter (fun v -> scratch.(v) <- rows.(v)) members_arr.(ci')
    in
    let rec loop ci' weight =
      if ci' = m then begin
        if List.for_all (fun c -> Query.check_join q c scratch) cross_conds then begin
          let v =
            match q.Query.agg with
            | Estimator.Count -> 1.0
            | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
              Query.eval_expr q scratch
          in
          Wj_stats.Moments.kadd rep.s_w weight;
          Wj_stats.Moments.kadd rep.s_wv (weight *. v);
          Wj_stats.Moments.kadd rep.s_wv2 (weight *. v *. v)
        end
      end
      else if ci' = ci then begin
        fill_members ci' new_path.rows;
        loop (ci' + 1) (weight *. new_path.inv_p)
      end
      else
        Vec.iter
          (fun (p : stored_path) ->
            fill_members ci' p.rows;
            loop (ci' + 1) (weight *. p.inv_p))
          rep.states.(ci').paths
    in
    loop 0 1.0
  in
  let rounds = ref 0 and walks = ref 0 and successes = ref 0 in
  let all_frozen rep = Array.for_all (fun st -> st.frozen) rep.states in
  let round () =
    incr rounds;
    Array.iter
      (fun rep ->
        Array.iteri
          (fun ci st ->
            if not st.frozen then begin
              st.comp_walks <- st.comp_walks + 1;
              incr walks;
              (match Walker.walk prepared.(ci) prng with
              | Walker.Success { path; inv_p } ->
                incr successes;
                let sp = { rows = path; inv_p } in
                combine rep ci sp;
                Vec.push st.paths sp;
                if Vec.length st.paths >= config.max_paths_per_component then
                  st.frozen <- true
              | Walker.Failure _ -> ())
            end)
          rep.states)
      reps
  in
  (* The driver's step is one round (every live replicate x component walks
     once); freezing everywhere reads as cancellation, polled every round,
     composed with the caller's own cancellation if any. *)
  let frozen_or_cancelled () =
    Array.for_all all_frozen reps
    || (match cfg.Run_config.should_stop with None -> false | Some f -> f ())
  in
  let (_ : Engine.Driver.stop_reason) =
    Engine.Driver.run ~sink
      ~polls:{ Engine.Driver.default_polls with cancel_mask = 0 }
      ~should_stop:frozen_or_cancelled ~max_walks:max_rounds
      ~max_time:cfg.Run_config.max_time ~clock
      ~walks:(fun () -> !rounds)
      ~step:round ()
  in
  let estimates = Array.map (replicate_estimate q) reps in
  let finite = Array.to_list estimates |> List.filter Float.is_finite in
  let nf = List.length finite in
  let mean =
    if nf = 0 then nan else List.fold_left ( +. ) 0.0 finite /. float_of_int nf
  in
  let half_width =
    if nf < 2 then infinity
    else begin
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0.0 finite
        /. float_of_int (nf - 1)
      in
      Wj_util.Normal.z_of_confidence confidence *. sqrt (var /. float_of_int nf)
    end
  in
  let elapsed = Timer.elapsed clock in
  {
    estimate = mean;
    half_width;
    components;
    component_plans = List.map (Walk_plan.describe q) plans;
    rounds = !rounds;
    walks = !walks;
    elapsed;
    replicate_estimates = estimates;
    final =
      Wj_obs.Progress.make ~elapsed ~walks:!walks ~successes:!successes
        ~estimate:mean ~half_width ();
  }
