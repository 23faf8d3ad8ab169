(* Tests for wj_iosim: LRU buffer pool, cost model, simulation glue. *)

module Buffer_pool = Wj_storage.Buffer_pool
module Cost_model = Wj_iosim.Cost_model
module Sim = Wj_iosim.Sim
module Timer = Wj_util.Timer
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event

let check_float = Alcotest.(check (float 1e-12))

(* ---- Buffer_pool ----------------------------------------------------- *)

let test_pool_hits_and_misses () =
  let p = Buffer_pool.create ~capacity:2 () in
  Alcotest.(check bool) "first access misses" false (Buffer_pool.touch p ~table:0 ~page:0);
  Alcotest.(check bool) "repeat hits" true (Buffer_pool.touch p ~table:0 ~page:0);
  Alcotest.(check bool) "second page misses" false (Buffer_pool.touch p ~table:0 ~page:1);
  Alcotest.(check int) "hits" 1 (Buffer_pool.hits p);
  Alcotest.(check int) "misses" 2 (Buffer_pool.misses p);
  Alcotest.(check int) "resident" 2 (Buffer_pool.resident p)

let test_pool_lru_eviction () =
  let p = Buffer_pool.create ~capacity:2 () in
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  ignore (Buffer_pool.touch p ~table:0 ~page:1);
  (* Touch page 0 so page 1 becomes LRU. *)
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  ignore (Buffer_pool.touch p ~table:0 ~page:2);
  (* page 1 evicted; re-touching 0 and 2 hits and keeps both resident *)
  Alcotest.(check bool) "page 0 resident" true (Buffer_pool.touch p ~table:0 ~page:0);
  Alcotest.(check bool) "page 2 resident" true (Buffer_pool.touch p ~table:0 ~page:2);
  Alcotest.(check bool) "page 1 evicted" false (Buffer_pool.touch p ~table:0 ~page:1);
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident p)

let test_pool_tables_disambiguated () =
  let p = Buffer_pool.create ~capacity:4 () in
  ignore (Buffer_pool.touch p ~table:0 ~page:7);
  Alcotest.(check bool) "same page other table misses" false
    (Buffer_pool.touch p ~table:1 ~page:7);
  Alcotest.(check int) "two pages" 2 (Buffer_pool.resident p)

let test_pool_clear_and_stats () =
  let p = Buffer_pool.create ~capacity:3 () in
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  Buffer_pool.reset_stats p;
  Alcotest.(check int) "stats reset" 0 (Buffer_pool.hits p + Buffer_pool.misses p);
  Alcotest.(check int) "still resident" 1 (Buffer_pool.resident p);
  Buffer_pool.clear p;
  Alcotest.(check int) "cleared" 0 (Buffer_pool.resident p);
  Alcotest.(check bool) "gone" false (Buffer_pool.touch p ~table:0 ~page:0)

let test_pool_eviction_keeps_counters () =
  (* Reconciliation identity (accesses = hits + misses) must survive
     eviction: only [reset_stats] and [clear] drop the counters. *)
  let p = Buffer_pool.create ~capacity:2 () in
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  ignore (Buffer_pool.touch p ~table:0 ~page:0);
  ignore (Buffer_pool.touch p ~table:0 ~page:1);
  ignore (Buffer_pool.touch p ~table:0 ~page:2);
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident p);
  Alcotest.(check int) "hits kept" 1 (Buffer_pool.hits p);
  Alcotest.(check int) "misses kept" 3 (Buffer_pool.misses p);
  Alcotest.(check int) "identity holds" (Buffer_pool.accesses p)
    (Buffer_pool.hits p + Buffer_pool.misses p);
  (* The evicted page misses again: residency really was dropped. *)
  Alcotest.(check bool) "cold after eviction" false
    (Buffer_pool.touch p ~table:0 ~page:0);
  Alcotest.(check int) "miss counted on top" 4 (Buffer_pool.misses p)

let test_pool_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Buffer_pool.create: capacity must be positive") (fun () ->
      ignore (Buffer_pool.create ~capacity:0 ()));
  let p = Buffer_pool.create ~capacity:2 () in
  List.iter
    (fun (table, page) ->
      Alcotest.check_raises "key out of range"
        (Invalid_argument "Buffer_pool: id or page out of range") (fun () ->
          ignore (Buffer_pool.touch p ~table ~page)))
    [ (-1, 0); (1 lsl 30, 0); (0, -1); (0, 1 lsl 32) ];
  Alcotest.(check bool) "largest key fits" false
    (Buffer_pool.touch p ~table:((1 lsl 30) - 1) ~page:((1 lsl 32) - 1))

let test_pool_heavy_churn () =
  (* Sequential sweep over 10x the capacity: everything misses; then a
     re-sweep of the last <capacity> pages hits. *)
  let cap = 50 in
  let p = Buffer_pool.create ~capacity:cap () in
  for page = 0 to (10 * cap) - 1 do
    ignore (Buffer_pool.touch p ~table:0 ~page)
  done;
  Alcotest.(check int) "all missed" (10 * cap) (Buffer_pool.misses p);
  Buffer_pool.reset_stats p;
  for page = (10 * cap) - cap to (10 * cap) - 1 do
    ignore (Buffer_pool.touch p ~table:0 ~page)
  done;
  Alcotest.(check int) "tail resident" cap (Buffer_pool.hits p)

(* ---- Cost_model ------------------------------------------------------ *)

let test_cost_model () =
  let m = Cost_model.default in
  Alcotest.(check int) "pages round up" 4 (Cost_model.pages_of_rows m (3 * m.rows_per_page + 1));
  Alcotest.(check int) "exact pages" 3 (Cost_model.pages_of_rows m (3 * m.rows_per_page));
  check_float "scan cost" (4.0 *. m.seq_io)
    (Cost_model.scan_seconds m ~rows:((3 * m.rows_per_page) + 1));
  Alcotest.(check bool) "random >> seq" true (m.random_io > m.seq_io);
  Alcotest.(check bool) "seq >> ram" true (m.seq_io > m.ram_access)

(* ---- Sim ------------------------------------------------------------- *)

let test_sim_requires_virtual_clock () =
  Alcotest.check_raises "wall clock rejected"
    (Invalid_argument "Sim.create: clock must be virtual") (fun () ->
      ignore (Sim.create ~pool_pages:10 ~clock:(Timer.wall ()) ()))

let test_sim_walker_sink_charges () =
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages:10 ~clock () in
  let sink = Sim.sink sim in
  let m = Sim.model sim in
  (* First row access: miss -> random I/O. *)
  Sink.emit sink (Event.Row_access { pos = 0; row = 0 });
  check_float "miss cost" m.random_io (Timer.elapsed clock);
  (* Same page again: hit -> RAM. *)
  Sink.emit sink (Event.Row_access { pos = 0; row = 1 });
  check_float "hit cost" (m.random_io +. m.ram_access) (Timer.elapsed clock);
  (* Index probe: per-level cached cost. *)
  Sink.emit sink (Event.Index_probe { pos = 0; cost = 3 });
  check_float "probe cost"
    (m.random_io +. m.ram_access +. (3.0 *. m.index_level_cost))
    (Timer.elapsed clock)

let test_sim_ripple_tracer () =
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages:10 ~clock () in
  let m = Sim.model sim in
  Sim.ripple_tracer sim ~pos:0 ~slot:0 ~sequential:true;
  check_float "seq miss" m.seq_io (Timer.elapsed clock);
  Sim.ripple_tracer sim ~pos:0 ~slot:1 ~sequential:true;
  check_float "same page hit" (m.seq_io +. m.ram_access) (Timer.elapsed clock);
  Sim.ripple_tracer sim ~pos:1 ~slot:999 ~sequential:false;
  check_float "random miss"
    (m.seq_io +. m.ram_access +. m.random_io)
    (Timer.elapsed clock)

let test_sim_scan_and_warm () =
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages:1000 ~clock () in
  let m = Sim.model sim in
  Sim.charge_scan sim ~rows:(10 * m.rows_per_page);
  check_float "scan" (10.0 *. m.seq_io) (Timer.elapsed clock);
  (* Warming loads pages without charging. *)
  let t0 = Timer.elapsed clock in
  Sim.warm sim ~table:3 ~rows:(5 * m.rows_per_page);
  check_float "warm free" t0 (Timer.elapsed clock);
  Sink.emit (Sim.sink sim) (Event.Row_access { pos = 3; row = 0 });
  check_float "warmed page hits" (t0 +. m.ram_access) (Timer.elapsed clock)

let test_sim_end_to_end_locality () =
  (* A tiny-pool simulation of random walks over a big table must cost more
     per access than one with a big pool. *)
  let run pool_pages =
    let clock = Timer.virtual_ () in
    let sink = Sim.sink (Sim.create ~pool_pages ~clock ()) in
    let prng = Wj_util.Prng.create 3 in
    for _ = 1 to 2000 do
      Sink.emit sink (Event.Row_access { pos = 0; row = Wj_util.Prng.int prng 100_000 })
    done;
    Timer.elapsed clock
  in
  let small = run 4 and large = run 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "small pool slower (%.4f vs %.4f)" small large)
    true (small > large)

let test_sim_online_session_pinned () =
  (* A fixed-seed, fixed-budget Q3 session (optimizer trials included)
     through a 200-page pool on a virtual clock.  The expected figures
     are pinned: any change to the order of the walker's Row_access /
     Index_probe stream or to the charge formulas moves them, and so does
     a change to the optimizer's trials (all but the estimate, which
     depends on the chosen plan alone). *)
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.01 () in
  let q = Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q3 d in
  let reg = Wj_tpch.Queries.registry q in
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages:200 ~clock () in
  let o =
    Wj_core.Online.run_session
      (Wj_core.Run_config.make ~seed:5 ~max_walks:5_000 ~max_time:1e9 ~clock
         ~sink:(Sim.sink sim) ())
      q reg
  in
  let bits = Int64.bits_of_float in
  Alcotest.(check int) "walks" 5_000 o.final.walks;
  Alcotest.(check int) "optimizer walks" 14_552 o.optimizer_walks;
  Alcotest.(check int64) "estimate" (bits 37218930.284004912) (bits o.final.estimate);
  Alcotest.(check int64)
    "charged seconds" (bits 3.0050024000028137)
    (bits (Sim.charged_seconds sim));
  Alcotest.(check int64)
    "clock = charges" (bits (Sim.charged_seconds sim))
    (bits (Timer.elapsed clock));
  Alcotest.(check int) "pool misses" 29_970 (Buffer_pool.misses (Sim.pool sim));
  Alcotest.(check int) "pool hits" 14_797 (Buffer_pool.hits (Sim.pool sim))

let () =
  Alcotest.run "wj_iosim"
    [
      ( "buffer_pool",
        [
          Alcotest.test_case "hits and misses" `Quick test_pool_hits_and_misses;
          Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "tables disambiguated" `Quick test_pool_tables_disambiguated;
          Alcotest.test_case "clear and stats" `Quick test_pool_clear_and_stats;
          Alcotest.test_case "eviction keeps counters" `Quick
            test_pool_eviction_keeps_counters;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "heavy churn" `Quick test_pool_heavy_churn;
        ] );
      ("cost_model", [ Alcotest.test_case "arithmetic" `Quick test_cost_model ]);
      ( "sim",
        [
          Alcotest.test_case "virtual clock required" `Quick test_sim_requires_virtual_clock;
          Alcotest.test_case "walker sink" `Quick test_sim_walker_sink_charges;
          Alcotest.test_case "ripple tracer" `Quick test_sim_ripple_tracer;
          Alcotest.test_case "scan and warm" `Quick test_sim_scan_and_warm;
          Alcotest.test_case "locality effect" `Quick test_sim_end_to_end_locality;
          Alcotest.test_case "online session pinned" `Quick
            test_sim_online_session_pinned;
        ] );
    ]
