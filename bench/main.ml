(* Paper reproduction: regenerates every table and figure of the paper's
   evaluation (Section 5), plus ablations beyond it.  Performance of the
   implementation itself (per-layer costs, time to CI, daemon latency) is
   measured by wjbench instead; see bench/ledger/README.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig9  -- one experiment
     dune exec bench/main.exe -- --quick      -- reduced sizes/targets
     dune exec bench/main.exe -- --list       -- list experiment ids

   Scale: the paper ran 1-40 GB TPC-H on a 2016 server; this harness runs
   scaled-down datasets (the SF behind each label is printed at generation)
   and targets the paper's *shapes* — who wins, by what factor, where
   crossovers fall.  EXPERIMENTS.md records paper-vs-measured per
   experiment.  Limited-memory experiments run on a hybrid clock: real CPU
   time plus simulated I/O charges from the buffer-pool model. *)

module Generator = Wj_tpch.Generator
module Queries = Wj_tpch.Queries
module Query = Wj_core.Query
module Online = Wj_core.Online
module Optimizer = Wj_core.Optimizer
module Walk_plan = Wj_core.Walk_plan
module Ripple = Wj_ripple.Ripple
module Index_ripple = Wj_ripple.Index_ripple
module Exact = Wj_exec.Exact
module Target = Wj_stats.Target
module Timer = Wj_util.Timer
module Sim = Wj_iosim.Sim
module Cost_model = Wj_iosim.Cost_model

let quick = ref false
let seed = 424242

(* ---- dataset cache ---------------------------------------------------- *)

module Data = struct
  let cache : (float, Generator.dataset) Hashtbl.t = Hashtbl.create 8

  let get sf =
    match Hashtbl.find_opt cache sf with
    | Some d -> d
    | None ->
      Printf.printf "  [data] generating TPC-H SF %g ...\n%!" sf;
      let d = Generator.generate ~seed:7 ~sf () in
      Hashtbl.add cache sf d;
      d
end

(* Label -> scale factor mappings (paper GB labels, scaled down ~1:100). *)
let standalone_sizes () =
  if !quick then [ ("1GB", 0.01); ("2GB", 0.02) ]
  else [ ("1GB", 0.01); ("2GB", 0.02); ("3GB", 0.03) ]

let system_sizes () =
  if !quick then [ ("5GB", 0.025); ("10GB", 0.05) ]
  else [ ("5GB", 0.025); ("10GB", 0.05); ("15GB", 0.075); ("20GB", 0.1) ]

let limited_sizes () =
  if !quick then [ ("10GB", 0.025); ("20GB", 0.05) ]
  else [ ("10GB", 0.025); ("20GB", 0.05); ("30GB", 0.075); ("40GB", 0.1) ]

let specs = [ Queries.Q3; Queries.Q7; Queries.Q10 ]

(* ---- helpers ----------------------------------------------------------- *)

let pct x = 100.0 *. x

let rel_err est truth =
  if truth = 0.0 then Float.abs est else Float.abs ((est -. truth) /. truth)

(* Every online cell below runs through the Run_config session path; these
   forward the bench's global seed and the legacy defaults. *)
let online_run ?target ?max_time ?max_walks ?report_every ?clock ?plan_choice
    ?sink ?eager_checks ?on_report q reg =
  Online.run_session ?eager_checks ?on_report
    (Wj_core.Run_config.make ~seed ?target ?max_time ?max_walks ?report_every
       ?clock ?plan_choice ?sink ())
    q reg

let online_run_group_by ?max_time ?max_walks ?report_every ?on_group_report q reg =
  Online.run_group_by_session ?on_group_report
    (Wj_core.Run_config.make ~seed ?max_time ?max_walks ?report_every ())
    q reg

(* Time for wander join to reach a relative CI target; the optimizer runs
   inside (its trial walks pick the plan and count toward the time). *)
let wj_time_to_ci ?(plan_choice = Online.Optimize Optimizer.default_config) ~target ~cap q
    reg =
  let out =
    online_run ~max_time:cap ~target:(Target.relative target) ~plan_choice q reg
  in
  (out.final.elapsed, out)

let fmt_time ~cap t =
  if t >= cap then Printf.sprintf ">%.3g" cap else Printf.sprintf "%.3g" t

(* The "PG plan": the walk order implied by the query's FROM clause. *)
let pg_plan q reg =
  match Walk_plan.of_order q reg (Array.init (Query.k q) Fun.id) with
  | Some p -> p
  | None -> List.hd (Walk_plan.enumerate ~max_plans:1 q reg)

(* Best and median plans as ranked by the optimizer's Var(X)*E[T] objective
   (stand-in for the paper's run-every-plan WJ(B)/WJ(M), which would be too
   slow to repeat per cell). *)
let ranked_plans q reg =
  let prng = Wj_util.Prng.create seed in
  let r = Optimizer.choose q reg prng in
  let ranked =
    List.sort
      (fun (a : Optimizer.plan_report) b -> compare a.objective b.objective)
      r.reports
  in
  let arr = Array.of_list ranked in
  let n = Array.length arr in
  (arr.(0).plan, arr.(min (n - 1) (n / 2)).plan)

let header title = Printf.printf "\n================ %s ================\n%!" title

(* ======================================================================= *)
(* Figure 8 *)
(* ======================================================================= *)

let fig8 () =
  header "Figure 8: CI and estimate trajectories (barebone, 2GB, 95% conf)";
  let d = Data.get 0.02 in
  let horizon = if !quick then 0.5 else 1.0 in
  let step = horizon /. 10.0 in
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Barebone spec d in
      let reg = Queries.registry q in
      let truth = (Exact.aggregate q reg).value in
      let wj = ref [] in
      ignore
        (online_run ~max_time:horizon ~report_every:step
           ~on_report:(fun r ->
             wj :=
               (r.elapsed, pct (r.half_width /. truth), pct (rel_err r.estimate truth))
               :: !wj)
           q reg);
      let rj = ref [] in
      ignore
        (Ripple.run ~seed ~max_time:horizon ~report_every:step
           ~on_report:(fun r ->
             rj :=
               (r.elapsed, pct (r.half_width /. truth), pct (rel_err r.estimate truth))
               :: !rj)
           q reg);
      Printf.printf "\n%s (true SUM = %.6g)\n" (Queries.name_of spec) truth;
      Printf.printf "%8s  %10s %10s  %10s %10s\n" "time(s)" "WJ CI%" "WJ err%" "RJ CI%"
        "RJ err%";
      let wj = List.rev !wj and rj = List.rev !rj in
      List.iteri
        (fun i (t, ci, err) ->
          let rj_cols =
            match List.nth_opt rj i with
            | Some (_, rci, rerr) -> Printf.sprintf "%10.3f %10.3f" rci rerr
            | None -> Printf.sprintf "%10s %10s" "done" "done"
          in
          Printf.printf "%8.2f  %10.3f %10.3f  %s\n" t ci err rj_cols)
        wj)
    specs

(* ======================================================================= *)
(* Figure 9 + Table 1 *)
(* ======================================================================= *)

let fig9 () =
  header "Figure 9: time (s) to +/-1% CI, barebone queries";
  let target = 0.01 in
  let cap = if !quick then 1.0 else 2.5 in
  Printf.printf "%-4s %-5s  %10s %10s %10s %10s %10s\n" "qry" "size" "RRJ" "IRJ" "WJ(B)"
    "WJ(M)" "WJ(O)";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Barebone spec d in
          let reg = Queries.registry q in
          let rrj =
            (Ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg).final
              .elapsed
          in
          let irj =
            (Index_ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg)
              .elapsed
          in
          let best, median = ranked_plans q reg in
          let t_best, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed best) ~target ~cap q reg
          in
          let t_median, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed median) ~target ~cap q reg
          in
          let t_opt, _ = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %-5s  %10s %10s %10s %10s %10s\n%!" (Queries.name_of spec)
            label (fmt_time ~cap rrj) (fmt_time ~cap irj) (fmt_time ~cap t_best)
            (fmt_time ~cap t_median) (fmt_time ~cap t_opt))
        (standalone_sizes ()))
    specs

let tab1 () =
  header "Table 1: optimizer time vs execution time to +/-1% CI (barebone)";
  let cap = if !quick then 1.5 else 3.0 in
  Printf.printf "%-4s %-5s  %16s %16s  %s\n" "qry" "size" "optimization(ms)"
    "execution(ms)" "chosen plan";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Barebone spec d in
          let reg = Queries.registry q in
          let _, out = wj_time_to_ci ~target:0.01 ~cap q reg in
          Printf.printf "%-4s %-5s  %16.1f %16.1f  %s\n%!" (Queries.name_of spec) label
            (1000.0 *. out.optimizer_time)
            (1000.0 *. (out.final.elapsed -. out.optimizer_time))
            out.plan_description)
        (standalone_sizes ()))
    specs

(* ======================================================================= *)
(* Figures 10/11 *)
(* ======================================================================= *)

let selectivity_figure ~title ~variants ~target ~cap () =
  header title;
  let d = Data.get 0.02 in
  Printf.printf "%-4s %6s  %10s %10s %10s %10s %10s\n" "qry" "sel%" "RRJ" "IRJ" "WJ(B)"
    "WJ(M)" "WJ(O)";
  List.iter
    (fun spec ->
      let bare = Queries.build ~variant:Barebone spec d in
      let barebone_size =
        float_of_int (Exact.join_size bare (Queries.registry bare))
      in
      List.iter
        (fun variant ->
          let q = Queries.build ~variant spec d in
          let reg = Queries.registry q in
          (* Overall selectivity per the paper's Eq. (4). *)
          let sel = 1.0 -. (float_of_int (Exact.join_size q reg) /. barebone_size) in
          let rrj =
            (Ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg).final
              .elapsed
          in
          let irj =
            (Ripple.run ~seed ~mode:Ripple.Index_assisted ~max_time:cap
               ~target:(Target.relative target) q reg)
              .final
              .elapsed
          in
          let best, median = ranked_plans q reg in
          let t_best, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed best) ~target ~cap q reg
          in
          let t_median, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed median) ~target ~cap q reg
          in
          let t_opt, _ = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %6.1f  %10s %10s %10s %10s %10s\n%!" (Queries.name_of spec)
            (pct sel) (fmt_time ~cap rrj) (fmt_time ~cap irj) (fmt_time ~cap t_best)
            (fmt_time ~cap t_median) (fmt_time ~cap t_opt))
        variants)
    specs

let fig10 () =
  let fracs = if !quick then [ 0.8; 0.4 ] else [ 0.8; 0.6; 0.4; 0.2 ] in
  selectivity_figure
    ~title:"Figure 10: time (s) to +/-1% CI, ONE date predicate, varying selectivity (2GB)"
    ~variants:(List.map (fun f -> Queries.One_date f) fracs)
    ~target:0.01
    ~cap:(if !quick then 1.5 else 3.0)
    ()

let fig11 () =
  let fracs = if !quick then [ 0.6; 0.2 ] else [ 0.8; 0.6; 0.4; 0.2; 0.1 ] in
  selectivity_figure
    ~title:
      "Figure 11: time (s) to +/-2% CI, ALL predicates, scaled selectivity (2GB)"
    ~variants:(List.map (fun f -> Queries.Scaled f) fracs)
    ~target:0.02
    ~cap:(if !quick then 2.0 else 5.0)
    ()

(* ======================================================================= *)
(* Figure 12 *)
(* ======================================================================= *)

let fig12 () =
  header "Figure 12a/b: full join vs wander join, standard predicates";
  (* The paper targets 1% at 5-20GB; CI difficulty tracks the qualifying
     join cardinality, which is ~100x smaller at bench scale, so we target
     2% to land in a comparable sampling regime. *)
  let target = 0.02 in
  let cap = if !quick then 4.0 else 8.0 in
  Printf.printf "%-4s %-5s  %14s  %18s %10s\n" "qry" "size" "full join(s)"
    "WJ to 2% CI(s)" "walks";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let _, t_full = Timer.time_it (fun () -> Exact.aggregate q reg) in
          let t_wj, out = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %-5s  %14.3f  %18s %10d\n%!" (Queries.name_of spec) label
            t_full (fmt_time ~cap t_wj) out.final.walks)
        (system_sizes ()))
    specs;

  header "Figure 12c: GROUP BY c_mktsegment, relative CI per group over time";
  let d = Data.get (if !quick then 0.025 else 0.05) in
  let q = Queries.build ~variant:Standard ~group_by_segment:true Queries.Q10 d in
  let reg = Queries.registry q in
  Printf.printf "%8s" "time(s)";
  Array.iter (fun s -> Printf.printf "  %11s" s) Generator.market_segments;
  print_newline ();
  ignore
    (online_run_group_by
       ~max_time:(if !quick then 1.5 else 3.0)
       ~report_every:0.5
       ~on_group_report:(fun t groups ->
         Printf.printf "%8.2f" t;
         List.iter
           (fun (_, (r : Online.report)) ->
             Printf.printf "  %10.2f%%" (pct (r.half_width /. Float.abs r.estimate)))
           groups;
         print_newline ())
       q reg)

(* ======================================================================= *)
(* Figure 13: limited memory, simulated I/O on a hybrid clock. *)
(* ======================================================================= *)

(* Pool of a "4GB machine": 40% of the pages of the "10GB" dataset. *)
let limited_pool_pages model =
  let ten_gb_rows = Generator.total_rows (Data.get 0.025) in
  max 64 (4 * Cost_model.pages_of_rows model ten_gb_rows / 10)

(* Sort-merge full join: read + sort (2 passes) + merge read per table. *)
let simulated_full_join_seconds model q =
  let passes = 4.0 in
  Array.fold_left
    (fun acc t ->
      acc +. (passes *. Cost_model.scan_seconds model ~rows:(Wj_storage.Table.length t)))
    0.0 q.Query.tables

let fig13 () =
  header "Figure 13: limited memory; time (SIMULATED s) to +/-5% CI";
  let model = Cost_model.default in
  let target = 0.05 in
  let vcap = if !quick then 60.0 else 240.0 in
  Printf.printf "%-4s %-5s  %14s %14s %14s %16s\n" "qry" "size" "full join" "Turbo DBO~"
    "wander join" "WJ (warm pool)";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let pool_pages = limited_pool_pages model in
          let t_full = simulated_full_join_seconds model q in
          (* DBO stand-in: random-order ripple, sequential retrieval. *)
          let clock = Timer.hybrid () in
          let sim = Sim.create ~model ~pool_pages ~clock () in
          let dbo =
            Ripple.run ~seed ~clock ~max_time:vcap ~max_rounds:20_000_000
              ~target:(Target.relative target)
              ~tuple_tracer:(Sim.ripple_tracer sim) q reg
          in
          (* Wander join through the cold buffer pool. *)
          let clock2 = Timer.hybrid () in
          let sim2 = Sim.create ~model ~pool_pages ~clock:clock2 () in
          let wj =
            online_run ~clock:clock2 ~max_time:vcap
              ~target:(Target.relative target) ~sink:(Sim.sink sim2) q reg
          in
          (* Wander join with data resident (the "sufficient memory" side of
             the paper's one-time-cost observation). *)
          let clock3 = Timer.hybrid () in
          let sim3 =
            Sim.create ~model ~pool_pages:(100 * pool_pages) ~clock:clock3 ()
          in
          Array.iteri
            (fun pos t -> Sim.warm sim3 ~table:pos ~rows:(Wj_storage.Table.length t))
            q.Query.tables;
          let wj_warm =
            online_run ~clock:clock3 ~max_time:vcap
              ~target:(Target.relative target) ~sink:(Sim.sink sim3) q reg
          in
          Printf.printf "%-4s %-5s  %14.1f %14s %14s %16s\n%!" (Queries.name_of spec)
            label t_full
            (fmt_time ~cap:vcap dbo.final.elapsed)
            (fmt_time ~cap:vcap wj.final.elapsed)
            (fmt_time ~cap:vcap wj_warm.final.elapsed))
        (limited_sizes ()))
    specs

(* ======================================================================= *)
(* Table 2 *)
(* ======================================================================= *)

let tab2 () =
  header
    "Table 2: optimizer vs PG plan (time to 2%/5% CI, actual error %)";
  let sizes =
    if !quick then [ ("10GB", 0.025) ] else [ ("10GB", 0.025); ("20GB", 0.05) ]
  in
  Printf.printf "%-4s %-5s %-10s  %10s %8s   %10s %8s\n" "qry" "size" "regime" "opt(s)"
    "AE%" "pg(s)" "AE%";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let truth = (Exact.aggregate q reg).value in
          (* Sufficient memory: wall clock, 2% target (the paper's 1% at
             its 100x larger qualifying joins). *)
          let cap = if !quick then 3.0 else 6.0 in
          let t_opt, out_opt = wj_time_to_ci ~target:0.02 ~cap q reg in
          let t_pg, out_pg =
            wj_time_to_ci ~plan_choice:(Online.Fixed (pg_plan q reg)) ~target:0.02 ~cap q
              reg
          in
          Printf.printf "%-4s %-5s %-10s  %10s %8.2f   %10s %8.2f\n%!"
            (Queries.name_of spec) label "memory" (fmt_time ~cap t_opt)
            (pct (rel_err out_opt.final.estimate truth))
            (fmt_time ~cap t_pg)
            (pct (rel_err out_pg.final.estimate truth));
          (* Limited memory: hybrid clock, 5% target. *)
          let model = Cost_model.default in
          let pool_pages = limited_pool_pages model in
          let vcap = if !quick then 60.0 else 240.0 in
          let run_sim plan_choice =
            let clock = Timer.hybrid () in
            let sim = Sim.create ~model ~pool_pages ~clock () in
            online_run ~clock ~max_time:vcap ~target:(Target.relative 0.05)
              ~plan_choice ~sink:(Sim.sink sim) q reg
          in
          let o1 = run_sim (Online.Optimize Optimizer.default_config) in
          let o2 = run_sim (Online.Fixed (pg_plan q reg)) in
          Printf.printf "%-4s %-5s %-10s  %10s %8.2f   %10s %8.2f\n%!"
            (Queries.name_of spec) label "limited"
            (fmt_time ~cap:vcap o1.final.elapsed)
            (pct (rel_err o1.final.estimate truth))
            (fmt_time ~cap:vcap o2.final.elapsed)
            (pct (rel_err o2.final.estimate truth)))
        sizes)
    specs

(* ======================================================================= *)
(* Table 3 *)
(* ======================================================================= *)

let tab3 () =
  header "Table 3: accuracy in 1/10 of System X's full-join time";
  (* System X's full-join time is linear in data size, so its paper-scale
     time is our measured time multiplied by the row ratio between the
     labelled size (1 GB ~ SF 1) and the bench SF.  System X itself is
     modelled as a commercial engine ~1.8x faster than our full join. *)
  let sizes = if !quick then [ ("10GB", 0.025) ] else limited_sizes () in
  Printf.printf "%-4s %-5s %-10s  %12s %10s %8s   %10s %8s\n" "qry" "size" "regime"
    "SystemX(s)" "WJ CI%" "WJ AE%" "DBO~ CI%" "DBO~ AE%";
  let label_gb label = float_of_string (Filename.chop_suffix label "GB") in
  let show ~found ci ae =
    if found && Float.is_finite ci then
      (Printf.sprintf "%10.2f" ci, Printf.sprintf "%8.2f" ae)
    else ("         -", "       -")
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let scale_ratio = label_gb label /. sf in
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let exact, t_full = Timer.time_it (fun () -> Exact.aggregate q reg) in
          let truth = exact.value in
          (* Sufficient memory. *)
          let sysx = 0.55 *. t_full *. scale_ratio in
          let budget = sysx /. 10.0 in
          let wj = online_run ~max_time:budget q reg in
          (* Wander join's work per CI level is scale-free, so it gets the
             paper-scale budget; ripple's is not — in the same budget at
             paper scale it samples fraction budget/(N*cost) of each table,
             so it gets the equivalent fraction here. *)
          let dbo = Ripple.run ~seed ~max_time:(budget /. scale_ratio) q reg in
          let w1, w2 =
            show ~found:(wj.final.successes > 0)
              (pct (wj.final.half_width /. Float.abs truth))
              (pct (rel_err wj.final.estimate truth))
          in
          let d1, d2 =
            show ~found:(dbo.final.successes > 0)
              (pct (dbo.final.half_width /. Float.abs truth))
              (pct (rel_err dbo.final.estimate truth))
          in
          Printf.printf "%-4s %-5s %-10s  %12.2f %s %s   %s %s\n%!"
            (Queries.name_of spec) label "memory" sysx w1 w2 d1 d2;
          (* Limited memory: budgets in simulated seconds at paper scale. *)
          let model = Cost_model.default in
          let pool_pages = limited_pool_pages model in
          let sysx_v = 0.55 *. simulated_full_join_seconds model q *. scale_ratio in
          let budget_v = sysx_v /. 10.0 in
          let clock = Timer.hybrid () in
          let sim = Sim.create ~model ~pool_pages ~clock () in
          let wjv =
            online_run ~clock ~max_time:budget_v ~sink:(Sim.sink sim) q
              reg
          in
          let clock2 = Timer.hybrid () in
          let sim2 = Sim.create ~model ~pool_pages ~clock:clock2 () in
          let dbov =
            Ripple.run ~seed ~clock:clock2 ~max_time:(budget_v /. scale_ratio)
              ~max_rounds:20_000_000 ~tuple_tracer:(Sim.ripple_tracer sim2) q reg
          in
          let w1, w2 =
            show ~found:(wjv.final.successes > 0)
              (pct (wjv.final.half_width /. Float.abs truth))
              (pct (rel_err wjv.final.estimate truth))
          in
          let d1, d2 =
            show ~found:(dbov.final.successes > 0)
              (pct (dbov.final.half_width /. Float.abs truth))
              (pct (rel_err dbov.final.estimate truth))
          in
          Printf.printf "%-4s %-5s %-10s  %12.2f %s %s   %s %s\n%!"
            (Queries.name_of spec) label "limited" sysx_v w1 w2 d1 d2)
        sizes)
    specs

(* ======================================================================= *)
(* Ablations beyond the paper. *)
(* ======================================================================= *)

let abl_tau () =
  header "Ablation: optimizer success threshold tau (Q7 standard, 2GB)";
  let d = Data.get 0.02 in
  let q = Queries.build ~variant:Standard Queries.Q7 d in
  let reg = Queries.registry q in
  Printf.printf "%6s  %12s %14s %12s\n" "tau" "trial walks" "chosen start" "objective";
  List.iter
    (fun tau ->
      let prng = Wj_util.Prng.create seed in
      let r = Optimizer.choose ~config:{ Optimizer.tau; max_rounds = 5000 } q reg prng in
      let chosen = List.find (fun (p : Optimizer.plan_report) -> p.chosen) r.reports in
      Printf.printf "%6d  %12d %14s %12.3g\n%!" tau r.total_trial_walks
        q.Query.names.(r.best_plan.order.(0))
        chosen.objective)
    (if !quick then [ 25; 100 ] else [ 10; 50; 100; 400 ])

let abl_fanout () =
  header "Ablation: walk direction vs success rate (Figure 7 scenario)";
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let mk name c1 c2 rows =
    let t =
      T.create ~name
        ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    List.iter (fun (a, b) -> ignore (T.insert t [| Int a; Int b |])) rows;
    t
  in
  (* Only 50 of r1's 5000 rows can join; every r3 row joins backwards. *)
  let r1 =
    mk "r1" "a" "b" (List.init 5000 (fun i -> (i, if i < 50 then i else 999_999)))
  in
  let r2 = mk "r2" "b" "c" (List.init 50 (fun i -> (i, i))) in
  let r3 = mk "r3" "c" "d" (List.init 50 (fun i -> (i, i))) in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Printf.printf "%-22s %12s %12s %10s\n" "plan" "successes" "walks" "rate%";
  List.iter
    (fun order ->
      match Walk_plan.of_order q reg order with
      | None -> ()
      | Some plan ->
        let prepared = Wj_core.Walker.prepare q reg plan in
        let prng = Wj_util.Prng.create seed in
        let succ = ref 0 in
        let n = 20_000 in
        for _ = 1 to n do
          match Wj_core.Walker.walk prepared prng with
          | Wj_core.Walker.Success _ -> incr succ
          | Wj_core.Walker.Failure _ -> ()
        done;
        Printf.printf "%-22s %12d %12d %10.2f\n%!" (Walk_plan.describe q plan) !succ n
          (pct (float_of_int !succ /. float_of_int n)))
    [ [| 0; 1; 2 |]; [| 2; 1; 0 |] ]

let abl_failfast () =
  header "Ablation: eager vs lazy non-tree edge checking (cyclic query)";
  let prng = Wj_util.Prng.create 17 in
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let mk name c1 c2 n =
    let t =
      T.create ~name
        ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    for _ = 1 to n do
      ignore
        (T.insert t [| Int (Wj_util.Prng.int prng 40); Int (Wj_util.Prng.int prng 40) |])
    done;
    t
  in
  let f = mk "f" "a" "b" 20_000
  and g = mk "g" "b" "c" 20_000
  and h = mk "h" "c" "a" 20_000 in
  let q =
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
          { left = (2, 1); right = (0, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Printf.printf "%-8s %14s %14s\n" "mode" "walks/s" "CI% after 1s";
  List.iter
    (fun eager ->
      let out =
        online_run ~max_time:1.0 ~eager_checks:eager
          ~plan_choice:Online.First_enumerated q reg
      in
      Printf.printf "%-8s %14.0f %14.2f\n%!"
        (if eager then "eager" else "lazy")
        (float_of_int out.final.walks /. out.final.elapsed)
        (pct (out.final.half_width /. Float.abs out.final.estimate)))
    [ true; false ]

let abl_stratified () =
  header "Ablation: stratified vs plain group-by on skewed groups";
  (* One giant group and nine rare ones: the paper's motivating case for
     stratified sampling (Section 7).  Same walk budget for both drivers;
     the per-group relative CI is what stratification buys. *)
  let prng = Wj_util.Prng.create 3 in
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let ta =
    let t =
      T.create ~name:"ta"
        ~schema:(S.make [ { S.name = "grp"; ty = TInt }; { name = "k"; ty = TInt } ])
        ()
    in
    for i = 0 to 19_999 do
      let group = if i < 19_000 then 0 else 1 + ((i - 19_000) / 100) in
      ignore (T.insert t [| Int group; Int (Wj_util.Prng.int prng 200) |])
    done;
    t
  in
  let tb =
    let t =
      T.create ~name:"tb"
        ~schema:(S.make [ { S.name = "k"; ty = TInt }; { name = "v"; ty = TInt } ])
        ()
    in
    for _ = 0 to 39_999 do
      ignore (T.insert t [| Int (Wj_util.Prng.int prng 200); Int (Wj_util.Prng.int prng 100) |])
    done;
    t
  in
  let q =
    Query.make
      ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 1); right = (1, 0); op = Eq } ]
      ~group_by:(Some (0, 0))
      ~agg:Wj_stats.Estimator.Sum ~expr:(Query.Col (1, 1)) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Wj_core.Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_ordered ta ~column:0);
  let walks = if !quick then 50_000 else 200_000 in
  let plain = online_run_group_by ~max_walks:walks ~max_time:60.0 q reg in
  let strat =
    Wj_core.Stratified.run ~seed ~allocation:Wj_core.Stratified.Adaptive ~max_walks:walks
      ~max_time:60.0 q reg
  in
  let rel (r : Online.report) =
    if Float.is_finite r.estimate && r.estimate <> 0.0 then
      pct (r.half_width /. Float.abs r.estimate)
    else nan
  in
  Printf.printf "%8s %10s  %14s %14s\n" "group" "rows" "plain CI%" "stratified CI%";
  List.iter
    (fun (g : Wj_core.Stratified.group_state) ->
      let plain_ci =
        match List.assoc_opt g.key plain.groups with
        | Some r -> Printf.sprintf "%14.2f" (rel r)
        | None -> Printf.sprintf "%14s" "(never hit)"
      in
      Printf.printf "%8s %10d  %s %14.2f\n"
        (Wj_storage.Value.to_display g.key)
        g.group_rows plain_ci (rel g.report))
    strat.strata

let abl_cardinality () =
  header "Ablation: cardinality-guided join order vs FROM order (exact execution)";
  (* Section 7: wander-join COUNT estimates of sub-join sizes feed a
     traditional optimizer.  Cost = tuples visited by the exact executor. *)
  let d = Data.get 0.02 in
  Printf.printf "%-4s  %16s %16s %16s  %s\n" "qry" "FROM order" "suggested" "saving"
    "order";
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Standard spec d in
      let reg = Queries.registry q in
      let naive = Exact.aggregate ~plan:(pg_plan q reg) q reg in
      let order, _ = Wj_core.Cardinality.suggest_order ~seed ~budget_walks:30_000 q reg in
      match Walk_plan.of_order q reg order with
      | None -> Printf.printf "%-4s  (suggested order not walkable)\n" (Queries.name_of spec)
      | Some plan ->
        let guided = Exact.aggregate ~plan q reg in
        Printf.printf "%-4s  %16d %16d %15.1f%%  %s\n%!" (Queries.name_of spec)
          naive.rows_visited guided.rows_visited
          (pct
             (1.0
             -. (float_of_int guided.rows_visited /. float_of_int naive.rows_visited)))
          (String.concat "->"
             (Array.to_list (Array.map (fun i -> q.Query.names.(i)) order))))
    specs

(* ======================================================================= *)

let experiments =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("tab1", tab1);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("tab2", tab2);
    ("tab3", tab3);
    ("abl-tau", abl_tau);
    ("abl-fanout", abl_fanout);
    ("abl-failfast", abl_failfast);
    ("abl-strat", abl_stratified);
    ("abl-card", abl_cardinality);
  ]

let () =
  let only = ref [] in
  let list_only = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := s :: !only), "ID run a single experiment");
      ("--quick", Arg.Set quick, " reduced sizes and time caps");
      ("--list", Arg.Set list_only, " list experiment ids");
    ]
  in
  Arg.parse args
    (fun s -> only := s :: !only)
    "bench/main.exe [--quick] [--only ID] [--list]";
  if !list_only then begin
    List.iter (fun (id, _) -> print_endline id) experiments;
    exit 0
  end;
  let to_run =
    if !only = [] then experiments
    else List.filter (fun (id, _) -> List.mem id !only) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment(s); use --list\n";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\n[bench] completed in %.1fs\n" (Unix.gettimeofday () -. t0)
