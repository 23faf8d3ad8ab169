(* Coverage of the nominal 95% CI on real joins (Appendix A).

   Each case runs 200 independent sessions under [Optimize] with
   [Optimizer.default_config], a session's default plan choice — one seed
   each, so every session makes its own plan choice — and compares each
   with the exact answer.  Over n sessions the number of covering CIs is
   Binomial(n, 0.95) when the CI is right, so the empirical coverage must
   lie within 3σ of 0.95, and the mean error within 3 standard errors of
   zero (the estimate is unbiased).

   Two stopping rules are checked.  A fixed walk budget gives the chosen
   plans a few hundred successes each (Q7's best plans succeed on about 1%
   of walks, the triangle's trie plans on most).  A relative target stops
   each session the first time its half-width meets the target, a
   data-dependent stopping time — the rule every wjd request follows.
   Those sessions have no walk budget or deadline, so the target is what
   stops every one of them. *)

module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Estimator = Wj_stats.Estimator
module Prng = Wj_util.Prng
module Schema = Wj_storage.Schema
module Table = Wj_storage.Table
module Value = Wj_storage.Value

let sessions = 200

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

(* f(a,b) ⋈ g(b,c) ⋈ h(c,a): 300 rows per table over 20 keys. *)
let triangle () =
  let prng = Prng.create 7 in
  let pairs () = List.init 300 (fun _ -> [ Prng.int prng 20; Prng.int prng 20 ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs ()) in
  let g = int_table "g" [ "b"; "c" ] (pairs ()) in
  let h = int_table "h" [ "c"; "a" ] (pairs ()) in
  Query.make
    ~tables:[ ("f", f); ("g", g); ("h", h) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
        { left = (2, 1); right = (0, 0); op = Eq };
      ]
    ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()

let q7 () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q7 d

(* Run [sessions] seeds to the stopping rule [stop], then check coverage
   and bias against the exact answer. *)
let check_coverage ~stop q () =
  let reg = Registry.build_for_query q in
  let truth = (Wj_exec.Exact.aggregate q reg).value in
  let max_walks, target =
    match stop with
    | `Walks w -> (Some w, None)
    | `Target rel -> (None, Some (Wj_stats.Target.relative rel))
  in
  let errors =
    List.init sessions (fun seed ->
        let out =
          Online.run_session
            (Run_config.make ~seed ?max_walks ?target ~max_time:infinity ())
            q reg
        in
        if target <> None then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d stopped on its target" seed)
            true
            (out.stopped_because = Online.Target_reached);
        (out.final.estimate -. truth, out.final.half_width))
  in
  let n = float_of_int sessions in
  let covered = List.length (List.filter (fun (e, hw) -> Float.abs e <= hw) errors) in
  let coverage = float_of_int covered /. n in
  let band = 3.0 *. sqrt (0.95 *. 0.05 /. n) in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f within 0.95 ± %.3f" coverage band)
    true
    (Float.abs (coverage -. 0.95) <= band);
  let mean = List.fold_left (fun a (e, _) -> a +. e) 0.0 errors /. n in
  let var =
    List.fold_left (fun a (e, _) -> a +. ((e -. mean) *. (e -. mean))) 0.0 errors
    /. (n -. 1.0)
  in
  let se = sqrt (var /. n) in
  Alcotest.(check bool)
    (Printf.sprintf "mean error %g within 3 SE (%g) of 0; truth %g" mean se truth)
    true
    (Float.abs mean <= 3.0 *. se)

let () =
  Alcotest.run "wj_coverage"
    [
      ( "coverage",
        [
          Alcotest.test_case "triangle COUNT under Optimize" `Slow
            (check_coverage ~stop:(`Walks 5_000) (triangle ()));
          Alcotest.test_case "Q7 SUM under Optimize" `Slow
            (check_coverage ~stop:(`Walks 20_000) (q7 ()));
          Alcotest.test_case "triangle COUNT stops at ±5%" `Slow
            (check_coverage ~stop:(`Target 0.05) (triangle ()));
          Alcotest.test_case "Q7 SUM stops at ±20%" `Slow
            (check_coverage ~stop:(`Target 0.20) (q7 ()));
        ] );
    ]
