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

let mean_steps t = float_of_int t.steps /. float_of_int (max 1 t.walks)

(* A plan is supported once it has min(tau/2, the most successes among
   [trials]) successes: with the backstop triggered nobody may have reached
   tau, so the requirement degrades rather than failing. *)
let threshold config trials =
  let best = List.fold_left (fun acc t -> max acc (Estimator.successes t.est)) 0 trials in
  min (config.tau / 2) (max 1 best)

let objective ~threshold t =
  if Estimator.successes t.est < threshold then infinity
  else begin
    let var = Estimator.variance_of_walk t.est in
    (* A zero variance estimate just means "no spread observed yet";
       keep the cost as a tie-breaker. *)
    if var <= 0.0 then mean_steps t *. 1e-9 else var *. mean_steps t
  end

(* Keep the better half (rounded up) of [alive]: supported plans by
   objective, then the rest by successes (descending) and mean steps;
   the stable sort breaks ties by enumeration order.  Survivors keep
   enumeration order, so the trial stream is drawn as before the cut. *)
let halve config alive =
  let threshold = threshold config alive in
  let key t = (objective ~threshold t, - Estimator.successes t.est, mean_steps t) in
  let ranked = List.stable_sort (fun a b -> compare (key a) (key b)) alive in
  let n = List.length alive in
  let keep = List.filteri (fun i _ -> 2 * i < n) ranked in
  List.filter (fun t -> List.memq t keep) alive

(* Sequential halving (Karnin, Koren & Somekh 2013) over [n] plans: with
   k = ceil(log2 n), the survivors are cut at cumulative rounds
   [max_rounds lsr (k - j)] for j = 1 .. k-1, which leaves two finalists
   for the last half of the budget. *)
let cut_rounds config n =
  let rec log2_ceil k = if 1 lsl k >= n then k else log2_ceil (k + 1) in
  let k = log2_ceil 0 in
  List.init (max 0 (k - 1)) (fun i -> config.max_rounds lsr (k - 1 - i))

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
  (* Sequential halving over the round-robin: survivors take turns in
     enumeration order, one walk each per round, and are halved at each
     cut until a survivor hits tau successes (or the backstop). *)
  let finished alive rounds =
    (match alive with [ _ ] -> true | _ -> false)
    || List.exists (fun t -> Estimator.successes t.est >= config.tau) alive
    || rounds >= config.max_rounds
  in
  let rec run alive cuts rounds =
    if finished alive rounds then alive
    else
      match cuts with
      | c :: later when c <= rounds -> run (halve config alive) later rounds
      | _ ->
        List.iter (fun t -> run_one_walk ?convergence q t prng) alive;
        run alive cuts (rounds + 1)
  in
  let survivors = run trials (cut_rounds config (List.length trials)) 0 in
  (match trace with
  | Some tr -> Wj_obs.Trace.span_end tr ~cat:"optimizer" ()
  | None -> ());
  let threshold = threshold config survivors in
  let objective = objective ~threshold in
  let best_trial =
    List.fold_left
      (fun acc t ->
        match acc with
        | None -> Some t
        | Some b -> if objective t < objective b then Some t else acc)
      None survivors
    |> Option.get
  in
  (* Even if every plan failed the support threshold, pick max successes. *)
  let best_trial =
    if objective best_trial < infinity then best_trial
    else
      List.fold_left
        (fun b t -> if Estimator.successes t.est > Estimator.successes b.est then t else b)
        (List.hd survivors) survivors
  in
  let reports =
    List.map
      (fun t ->
        {
          plan = t.tplan;
          trial_walks = t.walks;
          trial_successes = Estimator.successes t.est;
          var_x = Estimator.variance_of_walk t.est;
          cost_t = mean_steps t;
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
