module Estimator = Wj_stats.Estimator
module Target = Wj_stats.Target
module Timer = Wj_util.Timer
module Prng = Wj_util.Prng
module Value = Wj_storage.Value
module Sink = Wj_obs.Sink

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}

type stop_reason = Engine.Driver.stop_reason =
  | Target_reached
  | Time_up
  | Walk_budget_exhausted
  | Cancelled

type outcome = {
  final : report;
  estimator : Estimator.t;
  plan : Walk_plan.t;
  plan_description : string;
  optimizer_time : float;
  optimizer_walks : int;
  stopped_because : stop_reason;
  history : report list;
}

type plan_choice = Run_config.plan_choice =
  | Optimize of Optimizer.config
  | Fixed of Walk_plan.t
  | First_enumerated

let make_report ~confidence ~elapsed est =
  {
    elapsed;
    walks = Estimator.n est;
    successes = Estimator.successes est;
    tuples = 0;
    estimate = Estimator.estimate est;
    half_width = Estimator.half_width est ~confidence;
  }

let pick_plan ~plan_choice ~eager_checks ~sink ?convergence q registry prng clock =
  let prepare plan = Walker.prepare ~eager_checks ~sink q registry plan in
  match plan_choice with
  | Fixed plan -> (prepare plan, plan, 0.0, 0)
  | First_enumerated -> (
    match Walk_plan.enumerate ~max_plans:1 q registry with
    | [] -> invalid_arg "Online.start_session: query admits no walk plan"
    | plan :: _ -> (prepare plan, plan, 0.0, 0))
  | Optimize config ->
    let t0 = Timer.elapsed clock in
    let r =
      Optimizer.choose ~config ~eager_checks ~sink ?convergence q registry prng
    in
    let dt = Timer.elapsed clock -. t0 in
    (r.best, r.best_plan, dt, r.total_trial_walks)

module Session = struct
  type t = {
    driver : Engine.Driver.t;
    confidence : float;
    clock : Timer.t;
    est : Estimator.t;
    result : unit -> outcome;
  }

  let advance t ~max_steps = Engine.Driver.advance t.driver ~max_steps
  let interrupt t reason = Engine.Driver.interrupt t.driver reason
  let stopped t = Engine.Driver.stopped t.driver

  let progress t =
    make_report ~confidence:t.confidence ~elapsed:(Timer.elapsed t.clock) t.est

  let outcome t =
    if stopped t = None then invalid_arg "Online.Session.outcome: still running";
    t.result ()
end

let start_session ?(eager_checks = true) ?on_report (cfg : Run_config.t) q registry =
  let clock = Run_config.clock_or_wall cfg in
  (* The recorder scope is derived from the configured sink BEFORE the
     recorder is teed in: under the scheduler the session sink already
     carries a "session<id>."-scoped registry, so this session's CI
     trajectory and plan attribution file next to its gauges; standalone
     runs record under the root scope "". *)
  let scope =
    match Sink.metrics cfg.sink with
    | Some m -> Wj_obs.Metrics.prefix m
    | None -> ""
  in
  let sink =
    match cfg.recorder with
    | None -> cfg.sink
    | Some r -> Sink.tee cfg.sink (Wj_obs.Recorder.scoped_sink r ~scope)
  in
  let convergence =
    Option.map (fun r -> Wj_obs.Recorder.convergence r ~scope) cfg.recorder
  in
  let prng = Prng.create (cfg.seed lxor 0x4F4E4C) in  (* "ONL" *)
  let prepared, plan, optimizer_time, optimizer_walks =
    pick_plan ~plan_choice:cfg.plan_choice ~eager_checks ~sink ?convergence q
      registry prng clock
  in
  (* Trial walks only pick the plan: a pool of every candidate's walks has
     many times the chosen plan's per-walk variance, so the estimate is
     built from main-loop walks of the chosen plan alone. *)
  let est = Estimator.create q.Query.agg in
  if Sink.wants_reports sink then
    Sink.emit sink
      (Wj_obs.Event.Plan_chosen
         {
           description = Walk_plan.describe q plan;
           granularity = Walk_plan.granularity plan;
         });
  let history = ref [] in
  let emit_report () =
    let r = make_report ~confidence:cfg.confidence ~elapsed:(Timer.elapsed clock) est in
    history := r :: !history;
    (match on_report with None -> () | Some f -> f r);
    if Sink.wants_reports sink then Sink.emit sink (Wj_obs.Event.Report r)
  in
  let target_reached =
    Option.map
      (fun tgt () ->
        Target.reached tgt ~estimate:(Estimator.estimate est)
          ~half_width:(Estimator.half_width est ~confidence:cfg.confidence))
      cfg.target
  in
  let step () = Engine.feed q prepared est (Walker.walk prepared prng) in
  let driver =
    Engine.Driver.make ~sink ?target_reached ?should_stop:cfg.should_stop
      ?max_walks:cfg.max_walks ?report_every:cfg.report_every
      ~on_report:emit_report ~max_time:cfg.max_time ~clock
      ~walks:(fun () -> Estimator.n est)
      ~step ()
  in
  let credited = ref false in
  let result () =
    let stopped_because =
      match Engine.Driver.stopped driver with
      | Some r -> r
      | None -> assert false
    in
    let final =
      make_report ~confidence:cfg.confidence ~elapsed:(Timer.elapsed clock) est
    in
    (match convergence with
    | Some c when not !credited ->
      (* Main-loop walks all ran the chosen plan; the optimizer already
         attributed the trials, so per-plan attempts sum exactly to
         [final.walks + optimizer_walks].  Also pin the trajectory's last
         point to the final CI — report ticks stop before the loop does. *)
      credited := true;
      Wj_obs.Convergence.register_plan c (Walk_plan.describe q plan);
      Wj_obs.Convergence.credit c ~plan:(Walk_plan.describe q plan)
        ~attempts:final.walks ~successes:final.successes;
      Wj_obs.Convergence.note_ci c ~walks:final.walks ~half_width:final.half_width
    | Some _ | None -> ());
    {
      final;
      estimator = est;
      plan;
      plan_description = Walk_plan.describe q plan;
      optimizer_time;
      optimizer_walks;
      stopped_because;
      history = List.rev !history;
    }
  in
  { Session.driver; confidence = cfg.confidence; clock; est; result }

let run_session ?eager_checks ?on_report (cfg : Run_config.t) q registry =
  let s = start_session ?eager_checks ?on_report cfg q registry in
  let (_ : stop_reason) = Engine.Driver.drain s.Session.driver in
  Session.outcome s

(* ---- Group-by -------------------------------------------------------- *)

type group_outcome = {
  groups : (Value.t * report) list;
  total_walks : int;
  group_elapsed : float;
}

module Group_session = struct
  type t = {
    driver : Engine.Driver.t;
    result : unit -> group_outcome;
  }

  let advance t ~max_steps = Engine.Driver.advance t.driver ~max_steps
  let interrupt t reason = Engine.Driver.interrupt t.driver reason
  let stopped t = Engine.Driver.stopped t.driver

  let outcome t =
    if stopped t = None then
      invalid_arg "Online.Group_session.outcome: still running";
    t.result ()
end

let start_group_by_session ?on_group_report (cfg : Run_config.t) q registry =
  if q.Query.group_by = None then
    invalid_arg "Online.start_group_by_session: query has no GROUP BY";
  let clock = Run_config.clock_or_wall cfg in
  (* Group estimators have no single CI trajectory, so the recorder only
     contributes metrics sampling and tracing here — no convergence scope. *)
  let sink = Run_config.resolved_sink cfg in
  let prng = Prng.create (cfg.seed lxor 0x4F4E4C) in  (* "ONL" *)
  let prepared, plan, _, _ =
    pick_plan ~plan_choice:cfg.plan_choice ~eager_checks:true ~sink q registry prng
      clock
  in
  if Sink.wants_reports sink then
    Sink.emit sink
      (Wj_obs.Event.Plan_chosen
         {
           description = Walk_plan.describe q plan;
           granularity = Walk_plan.granularity plan;
         });
  let groups : (Value.t, Estimator.t) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0 in
  let group_est key =
    match Hashtbl.find_opt groups key with
    | Some e -> e
    | None ->
      let e = Estimator.create q.Query.agg in
      (* Walks performed before this group first appeared are misses. *)
      Estimator.add_failures e !total;
      Hashtbl.add groups key e;
      e
  in
  let pad_all () =
    Hashtbl.iter (fun _ e -> Estimator.add_failures e (!total - Estimator.n e)) groups
  in
  let snapshot () =
    pad_all ();
    Hashtbl.fold
      (fun key e acc ->
        ( key,
          make_report ~confidence:cfg.confidence ~elapsed:(Timer.elapsed clock) e )
        :: acc)
      groups []
    |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
  in
  let step () =
    (match Walker.walk prepared prng with
    | Walker.Success { path; inv_p } ->
      let key = Query.group_key q path in
      let e = group_est key in
      (* Catch up on misses since this group's last hit, then record. *)
      Estimator.add_failures e (!total - Estimator.n e);
      Estimator.add e ~u:inv_p ~v:(Engine.walk_value q prepared path)
    | Walker.Failure _ -> ());
    incr total
  in
  let emit_report () =
    match on_group_report with
    | None -> ()
    | Some f -> f (Timer.elapsed clock) (snapshot ())
  in
  let driver =
    Engine.Driver.make ~sink ?should_stop:cfg.should_stop ?max_walks:cfg.max_walks
      ?report_every:cfg.report_every ~on_report:emit_report ~max_time:cfg.max_time
      ~clock
      ~walks:(fun () -> !total)
      ~step ()
  in
  let result () =
    { groups = snapshot (); total_walks = !total; group_elapsed = Timer.elapsed clock }
  in
  { Group_session.driver; result }

let run_group_by_session ?on_group_report (cfg : Run_config.t) q registry =
  let s = start_group_by_session ?on_group_report cfg q registry in
  let (_ : stop_reason) = Engine.Driver.drain s.Group_session.driver in
  Group_session.outcome s
