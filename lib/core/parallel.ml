module Estimator = Wj_stats.Estimator
module Timer = Wj_util.Timer
module Prng = Wj_util.Prng
module Sink = Wj_obs.Sink

type outcome = {
  final : Online.report;
  estimator : Estimator.t;
  plan_description : string;
  domains_used : int;
  per_domain_walks : int array;
  stopped_because : Engine.Driver.stop_reason;
}

let run_session ?domains ?walks_per_domain (cfg : Run_config.t) q registry =
  let domains =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Parallel.run_session: domains must be >= 1"
    | None -> Domain.recommended_domain_count ()
  in
  let clock = Run_config.clock_or_wall cfg in
  let sink = cfg.sink in
  let prng = Prng.create (cfg.seed lxor 0x504152) (* "PAR" *) in
  (* Plan selection happens once, sequentially, with the full sink. *)
  let plan =
    match cfg.plan_choice with
    | Run_config.Fixed plan -> plan
    | Run_config.First_enumerated -> (
      match Walk_plan.enumerate ~max_plans:1 q registry with
      | [] -> invalid_arg "Parallel.run_session: query admits no walk plan"
      | plan :: _ -> plan)
    | Run_config.Optimize config ->
      (Optimizer.choose ~config ~sink q registry prng).best_plan
  in
  if Sink.wants_reports sink then
    Sink.emit sink
      (Wj_obs.Event.Plan_chosen
         {
           description = Walk_plan.describe q plan;
           granularity = Walk_plan.granularity plan;
         });
  (* Spawned domains get a metrics-only view of the sink: the flat counter
     cells are shared (increments race benignly, counts are approximate
     under contention — the documented tradeoff), but the event callback
     only ever fires from the calling domain. *)
  let worker_sink i =
    if i = 0 then sink
    else match Sink.metrics sink with None -> Sink.noop | Some m -> Sink.of_metrics m
  in
  let worker i () =
    let prng = Prng.create (cfg.seed + (1_000_003 * (i + 1))) in
    let prepared = Walker.prepare ~sink:(worker_sink i) q registry plan in
    let engine = Engine.create ~batch:cfg.batch prepared in
    let est = Estimator.create q.Query.agg in
    let reason =
      Engine.Driver.run ~sink:(worker_sink i) ?max_walks:walks_per_domain
        ?should_stop:cfg.should_stop ~max_time:cfg.max_time ~clock
        ~walks:(fun () -> Estimator.n est)
        ~step:(fun () -> Engine.feed q prepared est (Engine.next engine prng))
        ()
    in
    (est, reason)
  in
  let handles = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  let own, own_reason = worker 0 () in
  let parts = own :: List.map (fun h -> fst (Domain.join h)) handles in
  let per_domain_walks = Array.of_list (List.map Estimator.n parts) in
  let merged = List.fold_left Estimator.merge (Estimator.create q.Query.agg) parts in
  {
    final =
      Wj_obs.Progress.make ~elapsed:(Timer.elapsed clock) ~walks:(Estimator.n merged)
        ~successes:(Estimator.successes merged)
        ~estimate:(Estimator.estimate merged)
        ~half_width:(Estimator.half_width merged ~confidence:cfg.confidence)
        ();
    estimator = merged;
    plan_description = Walk_plan.describe q plan;
    domains_used = domains;
    per_domain_walks;
    stopped_because = own_reason;
  }
