(* Tests for the WCOJ substrate: trie iterator invariants, leapfrog vs
   nested-loop agreement on acyclic and cyclic queries, and constraint
   pre-intersection (unbiasedness, reject suppression, per-edge metrics). *)

module Exact = Wj_exec.Exact
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Walk_plan = Wj_core.Walk_plan
module Walker = Wj_core.Walker
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Trie = Wj_index.Trie
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Prng = Wj_util.Prng
module Estimator = Wj_stats.Estimator
module Sink = Wj_obs.Sink
module Metrics = Wj_obs.Metrics
module Counter = Wj_obs.Counter
module Event = Wj_obs.Event

let int_table name cols rows =
  let schema = Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols) in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r -> ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

let brute_force q =
  let kq = Query.k q in
  let path = Array.make kq 0 in
  let results = ref [] in
  let rec go pos =
    if pos = kq then begin
      let all_joins = List.for_all (fun c -> Query.check_join q c path) q.Query.joins in
      let all_preds =
        List.init kq Fun.id |> List.for_all (fun p -> Query.row_passes q p path.(p))
      in
      if all_joins && all_preds then results := Array.copy path :: !results
    end
    else
      for row = 0 to Table.length q.Query.tables.(pos) - 1 do
        path.(pos) <- row;
        go (pos + 1)
      done
  in
  go 0;
  !results

(* ---- Trie iterator invariants ------------------------------------------ *)

let rows_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 1 60)
    (QCheck.pair (QCheck.int_range 0 9) (QCheck.int_range 0 9))

let trie_of_pairs pairs =
  let t = int_table "t" [ "a"; "b" ] (List.map (fun (a, b) -> [ a; b ]) pairs) in
  Trie.build t ~columns:[| 0; 1 |]

let qcheck_trie_distinct_ascending =
  QCheck.Test.make ~name:"trie level-0 cursor: distinct ascending keys, counts cover"
    ~count:200 rows_gen (fun pairs ->
      let tr = trie_of_pairs pairs in
      let c = Trie.cursor tr ~level:0 ~lo:0 ~hi:(Trie.length tr) in
      let seen = ref [] in
      let covered = ref 0 in
      while not (Trie.at_end c) do
        let k = Trie.key c in
        (match !seen with
        | prev :: _ -> if k <= prev then QCheck.Test.fail_report "keys not ascending"
        | [] -> ());
        seen := k :: !seen;
        let clo, chi = Trie.child c in
        covered := !covered + (chi - clo);
        Trie.next c
      done;
      let distinct = List.sort_uniq compare (List.map fst pairs) in
      List.rev !seen = distinct && !covered = List.length pairs)

let qcheck_trie_seek =
  QCheck.Test.make ~name:"trie seek: least key >= k, monotone no-op below current"
    ~count:200
    (QCheck.pair rows_gen (QCheck.int_range 0 11))
    (fun (pairs, k) ->
      let tr = trie_of_pairs pairs in
      let c = Trie.cursor tr ~level:0 ~lo:0 ~hi:(Trie.length tr) in
      Trie.seek c k;
      let expect = List.filter (fun (a, _) -> a >= k) pairs |> List.map fst in
      (match (Trie.at_end c, expect) with
      | true, [] -> ()
      | true, _ -> QCheck.Test.fail_report "seek overshot existing keys"
      | false, [] -> QCheck.Test.fail_report "seek should be at end"
      | false, e ->
        let least = List.fold_left min max_int e in
        if Trie.key c <> least then QCheck.Test.fail_report "seek not on least key >= k");
      (* Seeking backwards must not move the cursor. *)
      if not (Trie.at_end c) then begin
        let here = Trie.key c in
        Trie.seek c (here - 3);
        if Trie.key c <> here then QCheck.Test.fail_report "backward seek moved cursor"
      end;
      true)

let qcheck_trie_narrow =
  QCheck.Test.make ~name:"trie narrow: two-level intersection equals naive count"
    ~count:200
    (QCheck.triple rows_gen (QCheck.int_range 0 9) (QCheck.int_range 0 9))
    (fun (pairs, a, b) ->
      let tr = trie_of_pairs pairs in
      let narrow ~level ~lo ~hi k =
        let nlo = Trie.narrow_start tr ~level ~lo ~hi k in
        (nlo, Trie.upper_bound tr ~level ~lo:nlo ~hi k)
      in
      let l0lo, l0hi = narrow ~level:0 ~lo:0 ~hi:(Trie.length tr) a in
      let l1lo, l1hi =
        if l0hi <= l0lo then (0, 0) else narrow ~level:1 ~lo:l0lo ~hi:l0hi b
      in
      let naive = List.length (List.filter (fun (x, y) -> x = a && y = b) pairs) in
      l1hi - l1lo = naive)

(* ---- Leapfrog vs nested-loop ------------------------------------------- *)

let random_chain_query seed sizes dom =
  let prng = Prng.create seed in
  let tables =
    List.mapi
      (fun i n ->
        ( Printf.sprintf "t%d" i,
          int_table (Printf.sprintf "t%d" i) [ "x"; "y" ]
            (List.init n (fun _ -> [ Prng.int prng dom; Prng.int prng dom ])) ))
      sizes
  in
  let joins =
    List.init (List.length sizes - 1) (fun i ->
        { Query.left = (i, 1); right = (i + 1, 0); op = Query.Eq })
  in
  Query.make ~tables ~joins ~agg:Estimator.Sum ~expr:(Query.Col (List.length sizes - 1, 1)) ()

let triangle_query ?(rows = 15) ?(dom = 5) seed =
  let prng = Prng.create seed in
  let pairs n = List.init n (fun _ -> [ Prng.int prng dom; Prng.int prng dom ]) in
  let f = int_table "f" [ "a"; "b" ] (pairs rows) in
  let g = int_table "g" [ "b"; "c" ] (pairs rows) in
  let h = int_table "h" [ "c"; "a" ] (pairs rows) in
  Query.make
    ~tables:[ ("f", f); ("g", g); ("h", h) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
        { left = (2, 1); right = (0, 0); op = Eq };
      ]
    ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()

let test_leapfrog_matches_nested_acyclic () =
  List.iter
    (fun seed ->
      let q = random_chain_query seed [ 25; 30; 20 ] 6 in
      Alcotest.(check bool) "applicable" true (Exact.leapfrog_applicable q);
      let reg = Registry.build_for_query q in
      let nl = Exact.aggregate ~strategy:Exact.Nested_loop q reg in
      let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
      Alcotest.(check int)
        (Printf.sprintf "join size (seed %d)" seed)
        nl.join_size lf.join_size;
      Alcotest.(check (float 1e-6)) (Printf.sprintf "sum (seed %d)" seed) nl.value lf.value)
    [ 1; 2; 3; 4; 5 ]

let test_leapfrog_matches_nested_cyclic () =
  List.iter
    (fun seed ->
      let q = triangle_query seed in
      let reg = Registry.build_for_query q in
      let nl = Exact.aggregate ~strategy:Exact.Nested_loop q reg in
      let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
      let brute = List.length (brute_force q) in
      Alcotest.(check int) (Printf.sprintf "triangles vs brute (seed %d)" seed) brute
        lf.join_size;
      Alcotest.(check int)
        (Printf.sprintf "triangles vs nested (seed %d)" seed)
        nl.join_size lf.join_size)
    [ 11; 12; 13; 14 ]

let test_auto_picks_leapfrog_on_cyclic () =
  let q = triangle_query 11 in
  let reg = Registry.build_for_query q in
  let auto = Exact.aggregate q reg in
  let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
  Alcotest.(check int) "same answer" lf.join_size auto.join_size;
  (* Leapfrog touches sorted runs, the nested loop re-derives intermediate
     paths; on a cyclic query their tuple-visit accounting must coincide. *)
  Alcotest.(check int) "auto = leapfrog cost" lf.rows_visited auto.rows_visited

(* A triangle closed by a Band edge. *)
let band_triangle () =
  let prng = Prng.create 21 in
  let pairs n = List.init n (fun _ -> [ Prng.int prng 6; Prng.int prng 6 ]) in
  let t0 = int_table "t0" [ "x"; "y" ] (pairs 20) in
  let t1 = int_table "t1" [ "x"; "y" ] (pairs 20) in
  let t2 = int_table "t2" [ "x"; "y" ] (pairs 20) in
  Query.make
    ~tables:[ ("t0", t0); ("t1", t1); ("t2", t2) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
        { left = (2, 1); right = (0, 0); op = Band { lo = -1; hi = 1 } };
      ]
    ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()

let test_leapfrog_band_residual () =
  (* Cyclic through an extra band edge; Eq edges carry the leapfrog, the
     band runs as a residual leaf filter. *)
  let q = band_triangle () in
  Alcotest.(check bool) "applicable with band" true (Exact.leapfrog_applicable q);
  let reg = Registry.build_for_query q in
  let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
  Alcotest.(check int) "band residual count" (List.length (brute_force q)) lf.join_size

let test_leapfrog_inapplicable () =
  (* Band-only join: no Eq variable keys the tables. *)
  let ta = int_table "ta" [ "v" ] (List.init 10 (fun i -> [ i ])) in
  let tb = int_table "tb" [ "v" ] (List.init 10 (fun i -> [ i ])) in
  let q =
    Query.make ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Band { lo = 1; hi = 2 } } ]
      ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  Alcotest.(check bool) "band-only not applicable" false (Exact.leapfrog_applicable q);
  Alcotest.check_raises "forced leapfrog raises"
    (Invalid_argument
       "Exact: leapfrog needs an Eq-join attribute on every table (connected, no \
        within-table equality)") (fun () ->
      ignore (Exact.aggregate ~strategy:Exact.Leapfrog q (Registry.build_for_query q)));
  (* Auto silently falls back and still answers. *)
  let r = Exact.aggregate q (Registry.build_for_query q) in
  Alcotest.(check int) "auto falls back" (List.length (brute_force q)) r.join_size

let qcheck_leapfrog_random_cyclic =
  QCheck.Test.make ~name:"leapfrog == brute force on random triangles" ~count:40
    (QCheck.int_range 0 10000) (fun seed ->
      let q = triangle_query ~rows:12 ~dom:4 seed in
      let reg = Registry.build_for_query q in
      let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
      lf.join_size = List.length (brute_force q))

(* ---- Walks: pre-intersection and per-edge rejects ----------------------- *)

(* A denser triangle where hash-only walks reject most of the time.  The
   first-enumerated plan is f -> g -> h entering h through h.a = f.a, so
   its single non-tree (foldable) edge is g~h. *)
let walk_triangle () = triangle_query ~rows:200 ~dom:10 31

let variant_plans q reg =
  match Walk_plan.enumerate ~max_plans:1 q reg with
  | [] -> Alcotest.fail "no plan"
  | base :: _ -> (
    match Walk_plan.intersect_variants q reg base with
    | [ _ ] | [] -> Alcotest.fail "no intersect variant"
    | b :: variants -> (b, List.hd (List.rev variants)))

let run_walks ?sink q reg plan ~walks ~seed =
  let prepared = Walker.prepare ?sink q reg plan in
  let prng = Prng.create seed in
  let sum = ref 0.0 in
  let fails = ref 0 in
  for _ = 1 to walks do
    match Walker.walk prepared prng with
    | Walker.Success { inv_p; _ } -> sum := !sum +. inv_p
    | Walker.Failure _ -> incr fails
  done;
  (!sum /. float_of_int walks, !fails)

let test_preintersection_unbiased_and_fewer_rejects () =
  let q = walk_triangle () in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.join_size q reg) in
  let base, variant = variant_plans q reg in
  Alcotest.(check string) "base granularity" "plain" (Walk_plan.granularity base);
  let walks = 30_000 in
  let est_base, fails_base = run_walks q reg base ~walks ~seed:424242 in
  let est_isect, fails_isect = run_walks q reg variant ~walks ~seed:424242 in
  let rel x = Float.abs (x -. exact) /. exact in
  Alcotest.(check bool)
    (Printf.sprintf "hash estimate near exact (%.1f vs %.1f)" est_base exact)
    true (rel est_base < 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "intersect estimate near exact (%.1f vs %.1f)" est_isect exact)
    true (rel est_isect < 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "rejects cut >= 5x (%d vs %d)" fails_base fails_isect)
    true (fails_isect * 5 <= fails_base)

let test_per_edge_reject_metrics () =
  let q = walk_triangle () in
  let reg = Registry.build_for_query q in
  let base, variant = variant_plans q reg in
  let check_plan plan =
    let m = Metrics.create () in
    let events = ref [] in
    let sink =
      Sink.make
        ~on_event:(fun e ->
          match e with
          | Event.Nontree_reject { edge; _ } -> events := edge :: !events
          | _ -> ())
        ~metrics:m ()
    in
    let _est, fails = run_walks ~sink q reg plan ~walks:3000 ~seed:7 in
    (* The plan has one non-tree edge, g~h; every non-tree reject must be
       attributed to it, by counter and by event. *)
    let label = "g~h" in
    let c = Counter.value (Metrics.counter m ("walker.rejects.nontree." ^ label)) in
    Alcotest.(check bool) "some rejects observed" true (fails > 0);
    Alcotest.(check bool) "per-edge counter fired" true (c > 0);
    Alcotest.(check int) "aggregate equals per-edge"
      (Counter.value (Metrics.counter m "walker.rejects.nontree"))
      c;
    List.iter (fun edge -> Alcotest.(check string) "event edge label" label edge) !events;
    Alcotest.(check int) "event count equals counter" c (List.length !events)
  in
  check_plan base;
  check_plan variant

(* Cyclic goldens: fixed-seed estimates pinned bit for bit (the cyclic
   counterpart of test_layout's Q3/Q7/Q10 goldens).  A change here means
   the PRNG draw sequence of cyclic walks moved — deliberate changes must
   update the hex literals. *)
let test_cyclic_goldens () =
  let q = walk_triangle () in
  let reg = Registry.build_for_query q in
  Alcotest.(check int) "exact triangle count" 7739 (Exact.join_size q reg);
  let base, variant = variant_plans q reg in
  let est_base, _ = run_walks q reg base ~walks:30_000 ~seed:424242 in
  let est_isect, _ = run_walks q reg variant ~walks:30_000 ~seed:424242 in
  Alcotest.(check string) "hash-plan estimate" "0x1.eb8d8bf258bf2p+12"
    (Printf.sprintf "%h" est_base);
  Alcotest.(check string) "trie-intersect estimate" "0x1.e4c162fc962fdp+12"
    (Printf.sprintf "%h" est_isect)

(* The nested loop enumerates a plan the way the walker walks it, folded
   edges included: every intersect variant of a plan gives Leapfrog's
   answer.  COUNT and SUM on the walk triangle (the hash plan and
   trie-intersect(1)), and COUNT on a triangle closed by a Band edge,
   over every plan, so some variant folds the Band edge. *)
let test_variants_enumerate_exactly () =
  let agree q plans =
    let reg = Registry.build_for_query q in
    let lf = Exact.aggregate ~strategy:Exact.Leapfrog q reg in
    List.iter
      (fun base ->
        List.iter
          (fun plan ->
            let nl = Exact.aggregate ~strategy:Exact.Nested_loop ~plan q reg in
            let label = Walk_plan.describe q plan in
            Alcotest.(check int) (label ^ " join size") lf.join_size nl.join_size;
            Alcotest.(check (float 1e-6)) (label ^ " value") lf.value nl.value)
          (Walk_plan.intersect_variants q reg base))
      (plans q reg);
    lf
  in
  let first q reg = Walk_plan.enumerate ~max_plans:1 q reg in
  let q = walk_triangle () in
  Alcotest.(check int) "triangle count" 7739 (agree q first).join_size;
  ignore (agree { q with Query.agg = Estimator.Sum; expr = Query.Col (2, 1) } first);
  let band = band_triangle () in
  let folds_band (plan : Walk_plan.t) =
    Array.exists
      (fun (s : Walk_plan.step) ->
        match s.isect with
        | None -> false
        | Some { folds; _ } ->
          List.exists
            (fun (f : Walk_plan.fold) -> f.oriented.Query.op <> Query.Eq)
            folds)
      plan.steps
  in
  let reg = Registry.build_for_query band in
  Alcotest.(check bool) "some variant folds the Band edge" true
    (List.exists
       (fun base -> List.exists folds_band (Walk_plan.intersect_variants band reg base))
       (Walk_plan.enumerate band reg));
  Alcotest.(check int) "band triangle vs brute"
    (List.length (brute_force band))
    (agree band Walk_plan.enumerate).join_size

(* A scan draws nothing and leaves no trace a walk can see: walks with a
   scan of one start row after each give the same outcomes and costs, bit
   for bit, as walks alone, and the scans of all 200 start rows count
   every triangle. *)
let test_scan_between_walks () =
  let q = walk_triangle () in
  let reg = Registry.build_for_query q in
  let _, variant = variant_plans q reg in
  let walks ~scan =
    let prepared = Walker.prepare q reg variant in
    let prng = Prng.create 5 in
    let path = Array.make (Query.k q) (-1) in
    let found = ref 0 in
    let trace =
      List.init 200 (fun start_row ->
          let outcome = Walker.walk prepared prng in
          let cost = Walker.steps_of_last_walk prepared in
          if scan then ignore (Walker.scan prepared path ~start_row (fun _ -> incr found));
          match outcome with
          | Walker.Success { inv_p; _ } -> (Printf.sprintf "%h" inv_p, cost)
          | Walker.Failure { depth } -> (Printf.sprintf "failed at %d" depth, cost))
    in
    (trace, !found)
  in
  let alone, _ = walks ~scan:false in
  let interleaved, found = walks ~scan:true in
  Alcotest.(check (list (pair string int))) "walks unmoved" alone interleaved;
  Alcotest.(check int) "scans count every triangle" 7739 found

let test_cyclic_walk_estimate_within_ci () =
  let q = walk_triangle () in
  let reg = Registry.build_for_query q in
  let exact = float_of_int (Exact.join_size q reg) in
  let outcome =
    Online.run_session
      (Run_config.make ~seed:424242 ~confidence:0.99 ~max_time:60.0
         ~max_walks:20_000 ())
      q reg
  in
  let err = Float.abs (outcome.final.estimate -. exact) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.1f ± %.1f covers exact %.1f" outcome.final.estimate
       outcome.final.half_width exact)
    true
    (err <= outcome.final.half_width)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wj_wcoj"
    [
      ( "trie",
        [
          qc qcheck_trie_distinct_ascending;
          qc qcheck_trie_seek;
          qc qcheck_trie_narrow;
        ] );
      ( "leapfrog",
        [
          Alcotest.test_case "matches nested-loop, acyclic" `Quick
            test_leapfrog_matches_nested_acyclic;
          Alcotest.test_case "matches nested-loop, cyclic" `Quick
            test_leapfrog_matches_nested_cyclic;
          Alcotest.test_case "auto picks leapfrog on cyclic" `Quick
            test_auto_picks_leapfrog_on_cyclic;
          Alcotest.test_case "band residual" `Quick test_leapfrog_band_residual;
          Alcotest.test_case "inapplicable cases" `Quick test_leapfrog_inapplicable;
          qc qcheck_leapfrog_random_cyclic;
        ] );
      ( "walks",
        [
          Alcotest.test_case "pre-intersection unbiased, fewer rejects" `Quick
            test_preintersection_unbiased_and_fewer_rejects;
          Alcotest.test_case "per-edge reject metrics" `Quick
            test_per_edge_reject_metrics;
          Alcotest.test_case "cyclic fixed-seed goldens" `Quick test_cyclic_goldens;
          Alcotest.test_case "intersect variants enumerate exactly" `Quick
            test_variants_enumerate_exactly;
          Alcotest.test_case "scan between walks moves nothing" `Quick
            test_scan_between_walks;
          Alcotest.test_case "cyclic estimate within CI of exact" `Quick
            test_cyclic_walk_estimate_within_ci;
        ] );
    ]
