module Query = Wj_core.Query
module Walk_plan = Wj_core.Walk_plan
module Table = Wj_storage.Table
module Index = Wj_index.Index
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

(* Sum of the aggregate expression over all completions of [row] bound at
   the plan's start position; also counts them.  [locators] holds one
   locate buffer per plan step. *)
let complete q (plan : Walk_plan.t) locators row =
  let kq = Query.k q in
  let rank = Array.make kq 0 in
  Array.iteri (fun i pos -> rank.(pos) <- i) plan.order;
  let checks_at = Array.make kq [] in
  List.iter
    (fun (c : Query.join_cond) ->
      let at = max rank.(fst c.left) rank.(fst c.right) in
      checks_at.(at) <- c :: checks_at.(at))
    plan.nontree;
  let path = Array.make kq (-1) in
  let nsteps = Array.length plan.steps in
  let sum = ref 0.0 and count = ref 0 in
  let rec descend i =
    if i = nsteps then begin
      incr count;
      match q.Query.agg with
      | Estimator.Count -> ()
      | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
        sum := !sum +. Query.eval_expr q path
    end
    else begin
      let step = plan.steps.(i) in
      let cond = step.Walk_plan.cond in
      let v =
        Table.int_cell q.Query.tables.(step.Walk_plan.parent) path.(step.Walk_plan.parent)
          (snd cond.Query.left)
      in
      let located = locators.(i) in
      Query.locate_join cond located v;
      for k = 0 to Index.located_count located - 1 do
        let r = Index.located_nth located k in
        path.(step.Walk_plan.into) <- r;
        if
          Query.row_passes q step.Walk_plan.into r
          && List.for_all (fun c -> Query.check_join q c path) checks_at.(i + 1)
        then descend (i + 1)
      done
    end
  in
  let start = plan.order.(0) in
  path.(start) <- row;
  if
    Query.row_passes q start row
    && List.for_all (fun c -> Query.check_join q c path) checks_at.(0)
  then descend 0;
  (!sum, !count)

let run ?(seed = 7) ?(confidence = 0.95) ?target ?(max_time = 10.0)
    ?(max_samples = max_int) ?clock ?start ?(sink = Wj_obs.Sink.noop) q registry =
  (match q.Query.agg with
  | Estimator.Sum | Estimator.Count -> ()
  | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
    invalid_arg "Index_ripple.run: only SUM and COUNT are supported");
  let clock = match clock with Some c -> c | None -> Timer.wall () in
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
  let locators = Array.map (fun (s : Walk_plan.step) -> Index.locator s.index) plan.steps in
  let est = Estimator.create q.Query.agg in
  let completions = ref 0 in
  (* One driver step = one sampled start tuple, fully completed. *)
  let step () =
    let row = Prng.int prng n in
    let sum, count = complete q plan locators row in
    completions := !completions + count;
    if count = 0 then Estimator.add_failure est
    else
      match q.Query.agg with
      | Estimator.Count ->
        (* The COUNT estimator is the mean of the u components, so the
           whole observation N * count is carried by u. *)
        Estimator.add est ~u:(float_of_int (n * count)) ~v:1.0
      | Estimator.Sum ->
        (* Uniform start tuple has p = 1/N: the observation is
           u*v = N * (total over completions). *)
        Estimator.add est ~u:(float_of_int n) ~v:sum
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
      ~sink ~progress:make_report
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
