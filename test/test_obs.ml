(* Tests for wj_obs and its integration: primitives, snapshot JSON,
   driver poll-mask validation, metric reconciliation against walk
   outcomes, sink transparency (bit-for-bit fixed-seed results), and the
   allocation-free recorder-off sink gating. *)

module Counter = Wj_obs.Counter
module Histogram = Wj_obs.Histogram
module Gauge = Wj_obs.Gauge
module Metrics = Wj_obs.Metrics
module Snapshot = Wj_obs.Snapshot
module Prom = Wj_obs.Prom
module Trace = Wj_obs.Trace
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event
module Progress = Wj_obs.Progress
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Engine = Wj_core.Engine
module Run_config = Wj_core.Run_config
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Timer = Wj_util.Timer
module Buffer_pool = Wj_storage.Buffer_pool
module Sim = Wj_iosim.Sim
module Estimator = Wj_stats.Estimator

(* ---- data builders (chain join as in test_core) ----------------------- *)

let int_table name cols rows =
  let schema =
    Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols)
  in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r ->
      ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

let chain_query () =
  let r1 =
    int_table "r1" [ "a"; "b" ]
      [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ]; [ 4; 30 ]; [ 5; 30 ]; [ 6; 40 ]; [ 7; 50 ] ]
  in
  let r2 =
    int_table "r2" [ "b"; "c" ]
      [ [ 10; 100 ]; [ 10; 200 ]; [ 20; 200 ]; [ 30; 300 ]; [ 40; 300 ]; [ 40; 400 ];
        [ 99; 999 ] ]
  in
  let r3 =
    int_table "r3" [ "c"; "d" ]
      [ [ 100; 7 ]; [ 200; 11 ]; [ 200; 13 ]; [ 300; 17 ]; [ 400; 19 ]; [ 500; 23 ] ]
  in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()

(* ---- primitives -------------------------------------------------------- *)

let test_counter () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Alcotest.(check int) "fresh" 0 (Counter.value c);
  Counter.incr c;
  Counter.add c 41;
  Alcotest.(check int) "incr+add" 42 (Counter.value c);
  let c' = Metrics.counter m "c" in
  Counter.incr c';
  Alcotest.(check int) "same cell through find-or-create" 43 (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

let test_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:4 "h" in
  Histogram.observe h 0;
  Histogram.observe h 3;
  Histogram.observe h 99;
  (* clamped to last bucket *)
  Histogram.observe h (-5);
  (* clamped to first bucket *)
  Histogram.add h 1 10;
  Alcotest.(check (array int)) "buckets" [| 2; 10; 0; 2 |] (Histogram.to_array h);
  Alcotest.(check int) "total" 14 (Histogram.total h)

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "g" in
  Gauge.set g 1.5;
  Gauge.add g 2.25;
  Alcotest.(check (float 1e-12)) "set+add" 3.75 (Gauge.value g)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "histogram over counter name"
    (Invalid_argument "Metrics: x is registered as another kind") (fun () ->
      ignore (Metrics.histogram m "x"))

(* ---- snapshot: render + JSON round-trip -------------------------------- *)

let test_snapshot_roundtrip () =
  let m = Metrics.create () in
  Counter.add (Metrics.counter m "walks") 12345;
  Counter.add (Metrics.counter m "successes") 67;
  Histogram.observe (Metrics.histogram m ~buckets:3 "depths") 1;
  Histogram.observe (Metrics.histogram m ~buckets:3 "depths") 1;
  Histogram.observe (Metrics.histogram m ~buckets:3 "depths") 2;
  Gauge.set (Metrics.gauge m "charged") 0.1234567890123456789;
  Gauge.set (Metrics.gauge m "weird.nan") nan;
  Gauge.set (Metrics.gauge m "weird.inf") infinity;
  let snap = Snapshot.of_metrics m in
  let json = Snapshot.to_json snap in
  let back = Snapshot.of_json json in
  Alcotest.(check bool) "round-trips" true (Snapshot.equal snap back);
  Alcotest.(check int) "counter read" 12345 (Snapshot.counter_value back "walks");
  Alcotest.(check (array int))
    "histogram read" [| 0; 2; 1 |]
    (Snapshot.histogram_value back "depths");
  Alcotest.(check bool)
    "nan survives" true
    (Float.is_nan (Snapshot.gauge_value back "weird.nan"));
  Alcotest.(check bool)
    "inf survives" true
    (Snapshot.gauge_value back "weird.inf" = infinity);
  (* Render mentions every family name. *)
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rendered = Snapshot.render snap in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rendered") true (contains_sub rendered name))
    [ "walks"; "successes"; "depths"; "charged" ]

(* ---- driver poll-mask validation --------------------------------------- *)

let test_polls_mask_validation () =
  List.iter
    (fun m -> Alcotest.(check bool) (string_of_int m) true (Engine.Driver.is_mask m))
    [ 0; 1; 3; 7; 15; 63; 255 ];
  List.iter
    (fun m -> Alcotest.(check bool) (string_of_int m) false (Engine.Driver.is_mask m))
    [ -1; 2; 4; 5; 6; 100 ];
  let clock = Timer.virtual_ () in
  let run polls =
    ignore
      (Engine.Driver.run ~polls ~max_time:1.0 ~clock
         ~walks:(fun () -> 0)
         ~step:(fun () -> Timer.advance clock 1.0)
         ())
  in
  run { Engine.Driver.target_mask = 15; report_mask = 0; cancel_mask = 63 };
  Alcotest.check_raises "non-mask rejected"
    (Invalid_argument "Engine.Driver.run: polls.target_mask = 5 is not 2^k - 1")
    (fun () -> run { Engine.Driver.target_mask = 5; report_mask = 0; cancel_mask = 63 })

(* ---- reconciliation ----------------------------------------------------- *)

let test_walk_reconciliation () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let m = Metrics.create () in
  let out =
    Online.run_session
      (Run_config.make ~seed:4242 ~max_walks:5_000 ~max_time:60.0
         ~plan_choice:Online.First_enumerated ~sink:(Sink.of_metrics m) ())
      q reg
  in
  let snap = Snapshot.of_metrics m in
  let walks = Snapshot.counter_value snap "walker.walks" in
  let successes = Snapshot.counter_value snap "walker.successes" in
  let failures = Snapshot.counter_value snap "walker.failures" in
  let depth_total =
    Array.fold_left ( + ) 0 (Snapshot.histogram_value snap "walker.failure_depth")
  in
  Alcotest.(check int) "driver saw every walk" out.Online.final.walks walks;
  Alcotest.(check int) "walks = successes + failures" walks (successes + failures);
  Alcotest.(check int) "failures = sum of failure-depth histogram" failures depth_total;
  Alcotest.(check int) "estimator successes" out.Online.final.successes successes;
  Alcotest.(check bool)
    "stop reason recorded" true
    (Snapshot.counter_value snap "driver.stop.walk_budget_exhausted" = 1)

let test_pool_reconciliation () =
  let pool = Buffer_pool.create ~capacity:4 () in
  for i = 0 to 99 do
    ignore (Buffer_pool.touch pool ~table:0 ~page:(i mod 6))
  done;
  Alcotest.(check int) "hits + misses = accesses"
    (Buffer_pool.accesses pool)
    (Buffer_pool.hits pool + Buffer_pool.misses pool);
  Alcotest.(check int) "accesses = touches" 100 (Buffer_pool.accesses pool)

let test_sim_sink_charges () =
  (* Sim.sink charges the clock for typed walker events and mirrors the
     pool into gauges. *)
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages:8 ~clock () in
  let m = Metrics.create () in
  let sink = Sim.sink ~metrics:m sim in
  Sink.emit sink (Event.Row_access { pos = 0; row = 0 });
  Sink.emit sink (Event.Row_access { pos = 0; row = 0 });
  Sink.emit sink (Event.Index_probe { pos = 0; cost = 3 });
  Alcotest.(check bool) "time charged" true (Sim.charged_seconds sim > 0.0);
  Alcotest.(check (float 1e-12))
    "clock advanced by exactly the charges" (Sim.charged_seconds sim)
    (Timer.elapsed clock);
  Sink.emit sink (Event.Stopped Event.Time_up);
  let snap = Snapshot.of_metrics m in
  Alcotest.(check (float 1e-9)) "gauge pool.hits" 1.0 (Snapshot.gauge_value snap "pool.hits");
  Alcotest.(check (float 1e-9))
    "gauge pool.misses" 1.0
    (Snapshot.gauge_value snap "pool.misses");
  Alcotest.(check (float 1e-9))
    "gauge pool.accesses" 2.0
    (Snapshot.gauge_value snap "pool.accesses");
  Alcotest.(check (float 1e-12))
    "gauge sim.charged_seconds" (Sim.charged_seconds sim)
    (Snapshot.gauge_value snap "sim.charged_seconds")

(* ---- sink transparency -------------------------------------------------- *)

let test_sink_transparency () =
  (* Fixed seed + walk budget: a full sink must not change a single PRNG
     draw, so estimates are bit-for-bit those of the no-op run. *)
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let run sink =
    Online.run_session
      (Run_config.make ~seed:99 ~max_walks:4_000 ~max_time:60.0 ?sink ())
      q reg
  in
  let plain = run None in
  let m = Metrics.create () in
  let events = ref 0 in
  let full = run (Some (Sink.make ~on_event:(fun _ -> incr events) ~metrics:m ())) in
  Alcotest.(check bool) "events flowed" true (!events > 0);
  Alcotest.(check int) "same walks" plain.Online.final.walks full.Online.final.walks;
  Alcotest.(check bool)
    "bit-for-bit estimate" true
    (Int64.equal
       (Int64.bits_of_float plain.Online.final.estimate)
       (Int64.bits_of_float full.Online.final.estimate));
  Alcotest.(check bool)
    "bit-for-bit half-width" true
    (Int64.equal
       (Int64.bits_of_float plain.Online.final.half_width)
       (Int64.bits_of_float full.Online.final.half_width))

let test_off_state_gating_allocates_nothing () =
  (* With no recorder the observability plumbing must be allocation-free:
     resolving the configured sink and testing event granularity — the
     exact gates the driver evaluates every tick — may not create a
     single minor word. *)
  let cfg = Run_config.make ~seed:1 () in
  let live = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let sink = Run_config.resolved_sink cfg in
    if Sink.wants_events sink then incr live;
    if Sink.wants_reports sink then incr live
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words over 100k checks" 0.0 words;
  Alcotest.(check int) "no-op sink wants nothing" 0 !live

(* ---- Prometheus exposition -------------------------------------------- *)

let test_prom_render () =
  let m = Metrics.create () in
  let c = Metrics.counter m "walker.walks" in
  Counter.add c 3;
  Gauge.set (Metrics.gauge m "sched.live") 2.0;
  let h = Metrics.histogram m ~buckets:8 "walker.failure_depth" in
  Histogram.observe h 0;
  Histogram.observe h 2;
  Histogram.observe h 2;
  (* Scope-prefix conventions collapse into labels rather than name soup. *)
  Counter.incr (Metrics.counter (Metrics.scoped m "session7") "walker.walks");
  Gauge.set (Metrics.gauge (Metrics.scoped m "tenant.acme") "in_flight") 1.0;
  let expected =
    String.concat "\n"
      [
        "# TYPE wj_in_flight gauge";
        "wj_in_flight{tenant=\"acme\"} 1";
        "# TYPE wj_sched_live gauge";
        "wj_sched_live 2";
        "# TYPE wj_walker_failure_depth histogram";
        "wj_walker_failure_depth_bucket{le=\"0\"} 1";
        "wj_walker_failure_depth_bucket{le=\"1\"} 1";
        "wj_walker_failure_depth_bucket{le=\"2\"} 3";
        "wj_walker_failure_depth_bucket{le=\"+Inf\"} 3";
        "wj_walker_failure_depth_sum 4";
        "wj_walker_failure_depth_count 3";
        "# TYPE wj_walker_walks counter";
        "wj_walker_walks{session=\"7\"} 1";
        "wj_walker_walks 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition" expected (Prom.render m);
  Alcotest.(check string)
    "content type" "text/plain; version=0.0.4" Prom.content_type

let test_prom_kind_collision () =
  (* Two registry names collapsing onto one exposed family with different
     kinds: the first (registry order) wins, the latecomer is dropped, and
     the output stays well-formed (one # TYPE per family). *)
  let m = Metrics.create () in
  Counter.incr (Metrics.counter m "cache.hits");
  Gauge.set (Metrics.gauge m "cache_hits") 9.0;
  let body = Prom.render m in
  Alcotest.(check string) "first kind wins"
    "# TYPE wj_cache_hits counter\nwj_cache_hits 1\n" body

(* ---- malformed JSON ------------------------------------------------------ *)

(* Both readers parse through Wj_util.Json: every malformed document —
   trailing garbage, a bad literal, a bad number or \u escape — and every
   document of the wrong shape raises its typed [Parse_error]. *)
let rejects name parse doc =
  match parse doc with
  | _ -> Alcotest.failf "%s: accepted %S" name doc
  | exception Wj_util.Json.Parse_error _ -> ()
  | exception e -> Alcotest.failf "%s: %S raised %s" name doc (Printexc.to_string e)

let test_snapshot_rejects_malformed () =
  List.iter
    (rejects "Snapshot.of_json" Snapshot.of_json)
    [
      {|{"counters":{"a":1}} junk|};
      {|{"counters":{"a":1-2}}|};
      {|{"counters":{"\uzzzz":1}}|};
      {|{"counters":{"a":1.5}}|};
      {|{"bogus":{}}|};
    ]

let test_trace_rejects_malformed () =
  List.iter
    (rejects "Trace.events_of_json" Trace.events_of_json)
    [
      {|{"x":txyz,"traceEvents":[]}|};
      {|{"traceEvents":[]} trailing|};
      {|{"traceEvents":[{"name":"\uzzzz"}]}|};
      {|{"traceEvents":[{"ts":1-2}]}|};
      {|{"traceEvents":{}}|};
    ]

(* ---- Chrome-trace export round-trip ------------------------------------ *)

let test_trace_json_roundtrip () =
  let clock = Timer.virtual_ () in
  let tr = Trace.create ~capacity:64 ~clock () in
  Trace.span_begin tr ~cat:"driver" "quantum:0";
  Timer.advance clock 0.002;
  Trace.instant tr ~cat:"walker" "walker.index_probe";
  Timer.advance clock 0.001;
  Trace.span_end tr ~cat:"driver" ();
  Trace.complete tr ~cat:"io" ~dur:0.004 "read";
  let events = Trace.events_of_json (Trace.to_json tr) in
  Alcotest.(check int) "one tuple per buffered event" (Trace.length tr)
    (List.length events);
  Alcotest.(check (list (triple string string string)))
    "names, cats, phases"
    [
      ("quantum:0", "driver", "B");
      ("walker.index_probe", "walker", "i");
      ("quantum:0", "driver", "E");
      ("read", "io", "X");
    ]
    (List.map (fun (n, c, ph, _) -> (n, c, ph)) events);
  (match events with
  | [ (_, _, _, t0); (_, _, _, t1); (_, _, _, t2); _ ] ->
      Alcotest.(check (float 1e-6)) "begin ts" 0.0 t0;
      Alcotest.(check (float 1e-6)) "instant ts" 0.002 t1;
      Alcotest.(check (float 1e-6)) "end ts" 0.003 t2
  | _ -> Alcotest.fail "unexpected event count");
  Alcotest.(check int) "balanced" 0 (Trace.depth tr);
  Alcotest.(check int) "no drops" 0 (Trace.dropped tr)

let test_progress_accessors () =
  let p =
    Progress.make ~elapsed:1.0 ~walks:10 ~successes:4 ~tuples:30 ~estimate:5.0
      ~half_width:0.5 ()
  in
  Alcotest.(check int) "walks" 10 p.walks;
  Alcotest.(check int) "successes" 4 p.successes;
  Alcotest.(check int) "tuples" 30 p.tuples;
  Alcotest.(check (float 1e-12)) "success_rate" 0.4 (Progress.success_rate p)

let () =
  Alcotest.run "wj_obs"
    [
      ( "primitives",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "render + JSON round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "malformed JSON rejected" `Quick
            test_snapshot_rejects_malformed;
        ] );
      ( "prom",
        [
          Alcotest.test_case "text exposition" `Quick test_prom_render;
          Alcotest.test_case "kind collision drops latecomer" `Quick
            test_prom_kind_collision;
          Alcotest.test_case "chrome trace JSON round-trip" `Quick
            test_trace_json_roundtrip;
          Alcotest.test_case "malformed chrome trace rejected" `Quick
            test_trace_rejects_malformed;
        ] );
      ( "driver",
        [ Alcotest.test_case "poll-mask validation" `Quick test_polls_mask_validation ]
      );
      ( "reconciliation",
        [
          Alcotest.test_case "walks = successes + failures" `Quick
            test_walk_reconciliation;
          Alcotest.test_case "pool hits + misses = accesses" `Quick
            test_pool_reconciliation;
          Alcotest.test_case "sim sink charges + gauges" `Quick test_sim_sink_charges;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "sink on = sink off, bit for bit" `Quick
            test_sink_transparency;
          Alcotest.test_case "recorder-off gating allocates nothing" `Quick
            test_off_state_gating_allocates_nothing;
          Alcotest.test_case "progress accessors" `Quick test_progress_accessors;
        ] );
    ]
