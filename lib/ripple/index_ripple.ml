module Query = Wj_core.Query
module Walk_plan = Wj_core.Walk_plan
module Walker = Wj_core.Walker
module Table = Wj_storage.Table
module Estimator = Wj_stats.Estimator
module Target = Wj_stats.Target
module Timer = Wj_util.Timer
module Prng = Wj_util.Prng

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}

let confidence = 0.95

let run ?(seed = 7) ?target ?(max_time = 10.0) ?(max_samples = max_int) ?start q
    registry =
  (match q.Query.agg with
  | Estimator.Sum | Estimator.Count -> ()
  | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
    invalid_arg "Index_ripple.run: only SUM and COUNT are supported");
  let clock = Timer.wall () in
  let prng = Prng.create (seed lxor 0x495250) in  (* "IRP" *)
  let plans = Walk_plan.enumerate q registry in
  let plan =
    match start with
    | None -> (
      match plans with
      | p :: _ -> p
      | [] -> invalid_arg "Index_ripple.run: no walk plan")
    | Some pos -> (
      match List.find_opt (fun (p : Walk_plan.t) -> p.order.(0) = pos) plans with
      | Some p -> p
      | None -> invalid_arg "Index_ripple.run: no plan starts at the given table")
  in
  let start_pos = plan.order.(0) in
  let table = q.Query.tables.(start_pos) in
  let n = Table.length table in
  let prepared = Walker.prepare q registry plan in
  let path = Array.make (Query.k q) (-1) in
  let est = Estimator.create q.Query.agg in
  let completions = ref 0 in
  (* One driver step = one sampled start tuple, fully completed: the sum
     of the aggregate expression over its completions, and their count. *)
  let step () =
    let sum = ref 0.0 and count = ref 0 in
    let emit path =
      incr count;
      match q.Query.agg with
      | Estimator.Count -> ()
      | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
        sum := !sum +. Walker.value_of prepared path
    in
    let (_ : int) = Walker.scan prepared path ~start_row:(Prng.int prng n) emit in
    completions := !completions + !count;
    if !count = 0 then Estimator.add_failure est
    else
      match q.Query.agg with
      | Estimator.Count ->
        (* The COUNT estimator is the mean of the u components, so the
           whole observation N * count is carried by u. *)
        Estimator.add est ~u:(float_of_int (n * !count)) ~v:1.0
      | Estimator.Sum ->
        (* Uniform start tuple has p = 1/N: the observation is
           u*v = N * (total over completions). *)
        Estimator.add est ~u:(float_of_int n) ~v:!sum
      | Estimator.Avg | Estimator.Variance | Estimator.Stdev -> assert false
  in
  let make_report () =
    {
      elapsed = Timer.elapsed clock;
      walks = Estimator.n est;
      successes = !completions;
      tuples = Estimator.n est;
      estimate = Estimator.estimate est;
      half_width = Estimator.half_width est ~confidence;
    }
  in
  let module Driver = Wj_core.Engine.Driver in
  let (_ : Driver.stop_reason) =
    Driver.run
      ~polls:{ Driver.default_polls with cancel_mask = 0 }
      ?target_reached:
        (Option.map
           (fun tgt () ->
             Target.reached tgt ~estimate:(Estimator.estimate est)
               ~half_width:(Estimator.half_width est ~confidence))
           target)
      ~should_stop:(fun () -> n = 0) (* an empty start table never samples *)
      ~max_walks:max_samples ~max_time ~clock
      ~walks:(fun () -> Estimator.n est)
      ~step ()
  in
  make_report ()
