(* Tests for wj_stats: Moments, Estimator (Appendix A), Target. *)

module Moments = Wj_stats.Moments
module Estimator = Wj_stats.Estimator
module Target = Wj_stats.Target
module Prng = Wj_util.Prng

(* ---- Moments --------------------------------------------------------- *)

let naive_mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let naive_cov xs ys =
  let n = List.length xs in
  let mx = naive_mean xs and my = naive_mean ys in
  List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
  /. float_of_int (n - 1)

let test_moments_vs_naive () =
  let prng = Prng.create 10 in
  let m = Moments.create ~dim:2 in
  let xs = ref [] and ys = ref [] in
  for _ = 1 to 500 do
    let x = Prng.float prng 10.0 in
    let y = (0.5 *. x) +. Prng.float prng 2.0 in
    xs := x :: !xs;
    ys := y :: !ys;
    Moments.add m [| x; y |]
  done;
  Alcotest.(check int) "n" 500 (Moments.n m);
  Alcotest.(check (float 1e-9)) "mean x" (naive_mean !xs) (Moments.mean m 0);
  Alcotest.(check (float 1e-9)) "mean y" (naive_mean !ys) (Moments.mean m 1);
  Alcotest.(check (float 1e-8)) "var x" (naive_cov !xs !xs) (Moments.sample_variance m 0);
  Alcotest.(check (float 1e-8)) "cov xy" (naive_cov !xs !ys)
    (Moments.sample_covariance m 0 1);
  Alcotest.(check (float 1e-8)) "cov symmetric" (Moments.sample_covariance m 0 1)
    (Moments.sample_covariance m 1 0)

let test_moments_zeros () =
  let m = Moments.create ~dim:1 in
  Moments.add m [| 4.0 |];
  Moments.add_zeros m 3;
  Alcotest.(check int) "n" 4 (Moments.n m);
  Alcotest.(check (float 1e-12)) "mean" 1.0 (Moments.mean m 0);
  (* Same as adding three explicit zero observations. *)
  let m' = Moments.create ~dim:1 in
  Moments.add m' [| 4.0 |];
  for _ = 1 to 3 do
    Moments.add m' [| 0.0 |]
  done;
  Alcotest.(check (float 1e-12)) "variance equal" (Moments.sample_variance m' 0)
    (Moments.sample_variance m 0);
  Alcotest.check_raises "negative" (Invalid_argument "Moments.add_zeros: negative count")
    (fun () -> Moments.add_zeros m (-1))

let test_moments_edge_cases () =
  let m = Moments.create ~dim:1 in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Moments.mean m 0);
  Alcotest.(check (float 0.0)) "empty var" 0.0 (Moments.sample_variance m 0);
  Moments.add m [| 7.0 |];
  Alcotest.(check (float 0.0)) "single var" 0.0 (Moments.sample_variance m 0);
  Alcotest.check_raises "dim" (Invalid_argument "Moments.add: dimension mismatch")
    (fun () -> Moments.add m [| 1.0; 2.0 |])

let test_kahan () =
  let k = Moments.kahan () in
  Moments.kadd k 1.0;
  for _ = 1 to 1_000_000 do
    Moments.kadd k 1e-16
  done;
  Alcotest.(check (float 1e-12)) "compensated" (1.0 +. 1e-10) (Moments.ksum k)

(* ---- Estimator: unbiasedness on a known population -------------------- *)

(* Population: values v_i with sampling probabilities p_i.  A walk picks
   index i with prob p_i and reports (u = 1/p_i, v = v_i).  The SUM
   estimator must converge to sum(v); COUNT to the population size. *)
let synthetic_population = [| 10.0; 20.0; 5.0; 65.0; 1.0; 0.0; 13.5; 42.0 |]

let sample_index prng probs =
  let r = Prng.float prng 1.0 in
  let rec go i acc =
    if i = Array.length probs - 1 then i
    else begin
      let acc = acc +. probs.(i) in
      if r < acc then i else go (i + 1) acc
    end
  in
  go 0 0.0

let nonuniform_probs =
  let raw = [| 3.0; 1.0; 2.0; 0.5; 4.0; 1.0; 0.25; 0.25 |] in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun x -> x /. total) raw

let run_estimator agg ~fail_prob ~n ~seed =
  let est = Estimator.create agg in
  let prng = Prng.create seed in
  for _ = 1 to n do
    if Prng.float prng 1.0 < fail_prob then Estimator.add_failure est
    else begin
      let i = sample_index prng nonuniform_probs in
      (* Account for the failure branch in the sampling probability. *)
      let p = (1.0 -. fail_prob) *. nonuniform_probs.(i) in
      Estimator.add est ~u:(1.0 /. p) ~v:synthetic_population.(i)
    end
  done;
  est

let true_sum = Array.fold_left ( +. ) 0.0 synthetic_population
let true_count = float_of_int (Array.length synthetic_population)

(* AVG/VARIANCE of the population under HT semantics: the "join result
   multiset" here is the population itself (each element once). *)
let true_avg = true_sum /. true_count

let true_variance =
  let mean = true_avg in
  Array.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0
    synthetic_population
  /. true_count

let check_estimator_converges name agg truth =
  let est = run_estimator agg ~fail_prob:0.3 ~n:60_000 ~seed:77 in
  let e = Estimator.estimate est in
  let hw = Estimator.half_width est ~confidence:0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "%s estimate %.4g within CI %.4g of %.4g" name e hw truth)
    true
    (Float.abs (e -. truth) <= (2.0 *. hw) +. (0.02 *. Float.abs truth))

let test_estimator_sum () = check_estimator_converges "SUM" Estimator.Sum true_sum
let test_estimator_count () = check_estimator_converges "COUNT" Estimator.Count true_count
let test_estimator_avg () = check_estimator_converges "AVG" Estimator.Avg true_avg

let test_estimator_variance () =
  check_estimator_converges "VARIANCE" Estimator.Variance true_variance

let test_estimator_stdev () =
  check_estimator_converges "STDEV" Estimator.Stdev (sqrt true_variance)

(* CI coverage: over many repetitions, the 90% interval should contain the
   truth roughly 90% of the time (with slack for small-sample effects). *)
let test_estimator_coverage () =
  let trials = 300 in
  let covered = ref 0 in
  for seed = 1 to trials do
    let est = run_estimator Estimator.Sum ~fail_prob:0.2 ~n:800 ~seed in
    let e = Estimator.estimate est in
    let hw = Estimator.half_width est ~confidence:0.9 in
    if Float.abs (e -. true_sum) <= hw then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f in [0.82, 0.98]" rate)
    true
    (rate >= 0.82 && rate <= 0.98)

let test_estimator_shrinks () =
  let e1 = run_estimator Estimator.Sum ~fail_prob:0.2 ~n:1_000 ~seed:5 in
  let e2 = run_estimator Estimator.Sum ~fail_prob:0.2 ~n:16_000 ~seed:5 in
  let hw1 = Estimator.half_width e1 ~confidence:0.95 in
  let hw2 = Estimator.half_width e2 ~confidence:0.95 in
  (* 16x the walks should shrink the CI by about 4x; accept >= 2.5x. *)
  Alcotest.(check bool) "CI shrinks like 1/sqrt(n)" true (hw2 *. 2.5 < hw1)

let test_estimator_all_failures () =
  let est = Estimator.create Estimator.Sum in
  for _ = 1 to 100 do
    Estimator.add_failure est
  done;
  Alcotest.(check (float 0.0)) "estimate 0" 0.0 (Estimator.estimate est);
  Alcotest.(check (float 0.0)) "half width infinite" infinity
    (Estimator.half_width est ~confidence:0.95);
  let avg = Estimator.create Estimator.Avg in
  Estimator.add_failure avg;
  Estimator.add_failure avg;
  Alcotest.(check bool) "AVG nan on no success" true
    (Float.is_nan (Estimator.estimate avg))

(* Every walk with the same weight: the power sums cancel, and a tiny
   negative variance must not turn the half-width into nan. *)
let test_estimator_constant_weights () =
  let est = Estimator.create Estimator.Count in
  for _ = 1 to 100 do
    Estimator.add est ~u:3.3 ~v:1.0
  done;
  Alcotest.(check (float 0.0)) "variance 0" 0.0 (Estimator.variance_of_walk est);
  Alcotest.(check (float 0.0)) "half width 0" 0.0 (Estimator.half_width est ~confidence:0.95)

let test_estimator_validation () =
  let est = Estimator.create Estimator.Sum in
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Estimator.add: weight must be positive") (fun () ->
      Estimator.add est ~u:0.0 ~v:1.0);
  Alcotest.(check int) "n stays 0" 0 (Estimator.n est);
  Alcotest.(check bool) "infinite CI below 2 walks" true
    (Estimator.half_width est ~confidence:0.95 = infinity)

let test_agg_to_string () =
  Alcotest.(check string) "SUM" "SUM" (Estimator.agg_to_string Estimator.Sum);
  Alcotest.(check string) "STDEV" "STDEV" (Estimator.agg_to_string Estimator.Stdev)

(* ---- Target ---------------------------------------------------------- *)

let test_target_relative () =
  let t = Target.relative 0.01 in
  Alcotest.(check bool) "reached" true (Target.reached t ~estimate:100.0 ~half_width:0.5);
  Alcotest.(check bool) "not reached" false
    (Target.reached t ~estimate:100.0 ~half_width:2.0);
  Alcotest.(check bool) "zero estimate" false
    (Target.reached t ~estimate:0.0 ~half_width:0.0);
  Alcotest.(check bool) "nan" false (Target.reached t ~estimate:nan ~half_width:0.1);
  Alcotest.(check bool) "infinite width" false
    (Target.reached t ~estimate:10.0 ~half_width:infinity)

let test_target_absolute () =
  let t = { Target.confidence = 0.95; width = Absolute 5.0 } in
  Alcotest.(check bool) "reached" true (Target.reached t ~estimate:0.0 ~half_width:4.9);
  Alcotest.(check bool) "not reached" false
    (Target.reached t ~estimate:0.0 ~half_width:5.1)

let test_target_validation () =
  Alcotest.check_raises "confidence"
    (Invalid_argument "Target: confidence must lie in (0,1)") (fun () ->
      ignore (Target.relative ~confidence:1.0 0.01));
  Alcotest.check_raises "fraction"
    (Invalid_argument "Target.relative: fraction must be positive") (fun () ->
      ignore (Target.relative 0.0))

let () =
  Alcotest.run "wj_stats"
    [
      ( "moments",
        [
          Alcotest.test_case "vs naive formulas" `Quick test_moments_vs_naive;
          Alcotest.test_case "bulk zeros" `Quick test_moments_zeros;
          Alcotest.test_case "edge cases" `Quick test_moments_edge_cases;
          Alcotest.test_case "kahan" `Quick test_kahan;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "SUM converges" `Slow test_estimator_sum;
          Alcotest.test_case "COUNT converges" `Slow test_estimator_count;
          Alcotest.test_case "AVG converges" `Slow test_estimator_avg;
          Alcotest.test_case "VARIANCE converges" `Slow test_estimator_variance;
          Alcotest.test_case "STDEV converges" `Slow test_estimator_stdev;
          Alcotest.test_case "CI coverage" `Slow test_estimator_coverage;
          Alcotest.test_case "CI shrinks" `Slow test_estimator_shrinks;
          Alcotest.test_case "all failures" `Quick test_estimator_all_failures;
          Alcotest.test_case "constant weights" `Quick test_estimator_constant_weights;
          Alcotest.test_case "validation" `Quick test_estimator_validation;
          Alcotest.test_case "agg_to_string" `Quick test_agg_to_string;
        ] );
      ( "target",
        [
          Alcotest.test_case "relative" `Quick test_target_relative;
          Alcotest.test_case "absolute" `Quick test_target_absolute;
          Alcotest.test_case "validation" `Quick test_target_validation;
        ] );
    ]
