module Estimator = Wj_stats.Estimator

type config = { tau : int; max_rounds : int }

let default_config = { tau = 100; max_rounds = 5000 }

type plan_report = {
  plan : Walk_plan.t;
  trial_walks : int;
  trial_successes : int;
  var_x : float;
  cost_t : float;
  objective : float;
  chosen : bool;
}

type result = {
  best : Walker.prepared;
  best_plan : Walk_plan.t;
  total_trial_walks : int;
  reports : plan_report list;
}

type trial = {
  prepared : Walker.prepared;
  tplan : Walk_plan.t;
  tlabel : string;
  est : Estimator.t;
  mutable walks : int;
  mutable steps : int;
}

let run_one_walk ?convergence q trial prng =
  trial.walks <- trial.walks + 1;
  (match Walker.walk trial.prepared prng with
  | Walker.Success { path; inv_p } ->
    let v =
      match q.Query.agg with
      | Estimator.Count -> 1.0
      | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
        Walker.value_of trial.prepared path
    in
    Estimator.add trial.est ~u:inv_p ~v;
    (match convergence with
    | None -> ()
    | Some c ->
      (* The per-plan observation is X₁ itself — the Horvitz–Thompson
         weighted value — so the attribution variance matches what drives
         the estimator's CI. *)
      Wj_obs.Convergence.observe c ~plan:trial.tlabel ~success:true (inv_p *. v))
  | Walker.Failure _ ->
    Estimator.add_failure trial.est;
    (match convergence with
    | None -> ()
    | Some c -> Wj_obs.Convergence.observe c ~plan:trial.tlabel ~success:false 0.0));
  trial.steps <- trial.steps + Walker.steps_of_last_walk trial.prepared

let choose ?(config = default_config) ?(eager_checks = true) ?(sink = Wj_obs.Sink.noop)
    ?convergence ?plans q registry prng =
  let plans =
    match plans with
    | Some ps -> ps
    | None ->
      (* Trial across index granularity too: every enumerated plan plus
         its trie pre-intersection variants.  For acyclic queries the
         variants are the identity, so tree-query trials (and their
         fixed-seed PRNG streams) are exactly as before. *)
      Walk_plan.enumerate q registry
      |> List.concat_map (Walk_plan.intersect_variants q registry)
  in
  if plans = [] then
    invalid_arg "Optimizer.choose: query admits no walk plan";
  let trials =
    List.map
      (fun plan ->
        {
          prepared = Walker.prepare ~eager_checks ~sink q registry plan;
          tplan = plan;
          tlabel = Walk_plan.describe q plan;
          est = Estimator.create q.Query.agg;
          walks = 0;
          steps = 0;
        })
      plans
  in
  (match convergence with
  | None -> ()
  | Some c -> List.iter (fun t -> Wj_obs.Convergence.register_plan c t.tlabel) trials);
  let trace = Wj_obs.Sink.trace sink in
  (match trace with
  | Some tr -> Wj_obs.Trace.span_begin tr ~cat:"optimizer" "optimizer.trials"
  | None -> ());
  (* Round-robin until one plan hits tau successes (or the backstop). *)
  let rounds = ref 0 in
  let done_ () =
    List.exists (fun t -> Estimator.successes t.est >= config.tau) trials
    || !rounds >= config.max_rounds
  in
  while not (done_ ()) do
    incr rounds;
    List.iter (fun t -> run_one_walk ?convergence q t prng) trials
  done;
  (match trace with
  | Some tr -> Wj_obs.Trace.span_end tr ~cat:"optimizer" ()
  | None -> ());
  let threshold =
    let best_successes =
      List.fold_left (fun acc t -> max acc (Estimator.successes t.est)) 0 trials
    in
    (* With the backstop triggered nobody may have reached tau; degrade the
       support requirement gracefully rather than failing. *)
    min (config.tau / 2) (max 1 best_successes)
  in
  let objective t =
    if Estimator.successes t.est < threshold then infinity
    else begin
      let var = Estimator.variance_of_walk t.est in
      let cost = float_of_int t.steps /. float_of_int (max 1 t.walks) in
      (* A zero variance estimate just means "no spread observed yet";
         keep the cost as a tie-breaker. *)
      if var <= 0.0 then cost *. 1e-9 else var *. cost
    end
  in
  let best_trial =
    List.fold_left
      (fun acc t ->
        match acc with
        | None -> Some t
        | Some b -> if objective t < objective b then Some t else acc)
      None trials
    |> Option.get
  in
  (* Even if every plan failed the support threshold, pick max successes. *)
  let best_trial =
    if objective best_trial < infinity then best_trial
    else
      List.fold_left
        (fun b t -> if Estimator.successes t.est > Estimator.successes b.est then t else b)
        (List.hd trials) trials
  in
  let reports =
    List.map
      (fun t ->
        {
          plan = t.tplan;
          trial_walks = t.walks;
          trial_successes = Estimator.successes t.est;
          var_x = Estimator.variance_of_walk t.est;
          cost_t = (float_of_int t.steps /. float_of_int (max 1 t.walks));
          objective = objective t;
          chosen = t == best_trial;
        })
      trials
  in
  {
    best = best_trial.prepared;
    best_plan = best_trial.tplan;
    total_trial_walks = List.fold_left (fun a t -> a + t.walks) 0 trials;
    reports;
  }
