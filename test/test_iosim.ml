(* Tests for wj_iosim: LRU buffer pool, cost model, simulation glue. *)

module Buffer_pool = Wj_storage.Buffer_pool
module Backend = Wj_storage.Backend
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Cost_model = Wj_iosim.Cost_model
module Sim = Wj_iosim.Sim
module Timer = Wj_util.Timer
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event

let check_float = Alcotest.(check (float 1e-12))

(* ---- Buffer_pool ----------------------------------------------------- *)

(* An in-memory backing file: page [p]'s bytes all read [p mod 256]. *)
let mem_file p =
  Buffer_pool.register_file p (fun page buf ->
      Bytes.fill buf 0 (Bytes.length buf) (Char.chr (page land 0xff)))

(* Whether reading the page hit: the frame was resident. *)
let read p ~file ~page =
  let hits = Buffer_pool.hits p in
  let frame = Buffer_pool.read p ~file ~page in
  Alcotest.(check char) "frame holds its page" (Char.chr (page land 0xff))
    (Bytes.get frame 0);
  Buffer_pool.hits p > hits

let test_pool_hits_and_misses () =
  let p = Buffer_pool.create ~capacity:2 () in
  let f = mem_file p in
  Alcotest.(check bool) "first access misses" false (read p ~file:f ~page:0);
  Alcotest.(check bool) "repeat hits" true (read p ~file:f ~page:0);
  Alcotest.(check bool) "second page misses" false (read p ~file:f ~page:1);
  Alcotest.(check int) "hits" 1 (Buffer_pool.hits p);
  Alcotest.(check int) "misses" 2 (Buffer_pool.misses p);
  Alcotest.(check int) "resident" 2 (Buffer_pool.resident p)

let test_pool_lru_eviction () =
  let p = Buffer_pool.create ~capacity:2 () in
  let f = mem_file p in
  ignore (read p ~file:f ~page:0);
  ignore (read p ~file:f ~page:1);
  (* Read page 0 so page 1 becomes LRU. *)
  ignore (read p ~file:f ~page:0);
  ignore (read p ~file:f ~page:2);
  (* page 1 evicted; re-reading 0 and 2 hits and keeps both resident *)
  Alcotest.(check bool) "page 0 resident" true (read p ~file:f ~page:0);
  Alcotest.(check bool) "page 2 resident" true (read p ~file:f ~page:2);
  Alcotest.(check bool) "page 1 evicted" false (read p ~file:f ~page:1);
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident p)

let test_pool_files_disambiguated () =
  let p = Buffer_pool.create ~capacity:4 () in
  let f0 = mem_file p in
  let f1 = mem_file p in
  ignore (read p ~file:f0 ~page:7);
  Alcotest.(check bool) "same page other file misses" false (read p ~file:f1 ~page:7);
  Alcotest.(check int) "two pages" 2 (Buffer_pool.resident p)

let test_pool_clear_and_stats () =
  let p = Buffer_pool.create ~capacity:3 () in
  let f = mem_file p in
  ignore (read p ~file:f ~page:0);
  ignore (read p ~file:f ~page:0);
  Buffer_pool.reset_stats p;
  Alcotest.(check int) "stats reset" 0 (Buffer_pool.hits p + Buffer_pool.misses p);
  Alcotest.(check int) "still resident" 1 (Buffer_pool.resident p);
  Buffer_pool.clear p;
  Alcotest.(check int) "cleared" 0 (Buffer_pool.resident p);
  Alcotest.(check bool) "gone" false (read p ~file:f ~page:0)

let test_pool_eviction_keeps_counters () =
  (* Reconciliation identity (accesses = hits + misses) must survive
     eviction: only [reset_stats] and [clear] drop the counters. *)
  let p = Buffer_pool.create ~capacity:2 () in
  let f = mem_file p in
  ignore (read p ~file:f ~page:0);
  ignore (read p ~file:f ~page:0);
  ignore (read p ~file:f ~page:1);
  ignore (read p ~file:f ~page:2);
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident p);
  Alcotest.(check int) "hits kept" 1 (Buffer_pool.hits p);
  Alcotest.(check int) "misses kept" 3 (Buffer_pool.misses p);
  Alcotest.(check int) "identity holds" (Buffer_pool.accesses p)
    (Buffer_pool.hits p + Buffer_pool.misses p);
  (* The evicted page misses again: residency really was dropped. *)
  Alcotest.(check bool) "cold after eviction" false (read p ~file:f ~page:0);
  Alcotest.(check int) "miss counted on top" 4 (Buffer_pool.misses p)

let test_pool_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Buffer_pool.create: capacity must be positive") (fun () ->
      ignore (Buffer_pool.create ~capacity:0 ()));
  let p = Buffer_pool.create ~capacity:2 () in
  let f = mem_file p in
  List.iter
    (fun (file, page) ->
      Alcotest.check_raises "key out of range"
        (Invalid_argument "Buffer_pool: id or page out of range") (fun () ->
          ignore (Buffer_pool.read p ~file ~page)))
    [ (-1, 0); (1 lsl 30, 0); (f, -1); (f, 1 lsl 32) ];
  (* The largest key is in range: it fails only as an unregistered file. *)
  Alcotest.check_raises "largest key fits"
    (Invalid_argument "Buffer_pool.read: unregistered file") (fun () ->
      ignore (Buffer_pool.read p ~file:((1 lsl 30) - 1) ~page:((1 lsl 32) - 1)));
  Alcotest.(check bool) "largest page fits" false
    (read p ~file:f ~page:((1 lsl 32) - 1))

let test_pool_heavy_churn () =
  (* Sequential sweep over 10x the capacity: everything misses; then a
     re-sweep of the last <capacity> pages hits. *)
  let cap = 50 in
  let p = Buffer_pool.create ~capacity:cap () in
  let f = mem_file p in
  for page = 0 to (10 * cap) - 1 do
    ignore (read p ~file:f ~page)
  done;
  Alcotest.(check int) "all missed" (10 * cap) (Buffer_pool.misses p);
  Buffer_pool.reset_stats p;
  for page = (10 * cap) - cap to (10 * cap) - 1 do
    ignore (read p ~file:f ~page)
  done;
  Alcotest.(check int) "tail resident" cap (Buffer_pool.hits p)

(* A pool sized to hold every page of a large dataset (2,232,700 pages)
   must not pay for that capacity before it holds a page. *)
let test_pool_capacity_not_preallocated () =
  let words = Obj.reachable_words (Obj.repr (Buffer_pool.create ~capacity:2_232_700 ())) in
  Alcotest.(check bool) (Printf.sprintf "%d words" words) true (words < 1_000)

(* ---- Cost_model ------------------------------------------------------ *)

let test_cost_model () =
  let m = Cost_model.default in
  check_float "pages round up" (4.0 *. m.seq_io)
    (Cost_model.scan_seconds m ~rows:((3 * m.rows_per_page) + 1));
  check_float "exact pages" (3.0 *. m.seq_io)
    (Cost_model.scan_seconds m ~rows:(3 * m.rows_per_page));
  Alcotest.(check bool) "random >> seq" true (m.random_io > m.seq_io);
  Alcotest.(check bool) "seq >> ram" true (m.seq_io > m.ram_access)

(* ---- Sim ------------------------------------------------------------- *)

(* Every paged table goes to a fresh directory, removed at exit. *)
let paged ~pool_pages tables =
  let dir = Backend.temp_dir "wj_iosim" in
  let tables, pool = Backend.prepare_tables (Backend.paged ~dir ~pool_pages ()) tables in
  (tables, Option.get pool)

(* A one-column paged table whose row [i] holds [i], read through a fresh
   pool of [pool_pages] pages: its reader and its pool. *)
let paged_column ~rows ~pool_pages =
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.TInt } ] in
  let t = Table.create ~capacity:rows ~name:"col" ~schema () in
  for i = 0 to rows - 1 do
    Table.push_int t ~col:0 i;
    ignore (Table.commit_row t)
  done;
  let tables, pool = paged ~pool_pages [ t ] in
  (Table.int_reader (List.hd tables) 0, pool)

let test_sim_requires_virtual_clock () =
  let pool = Buffer_pool.create ~capacity:10 () in
  Alcotest.check_raises "wall clock rejected"
    (Invalid_argument "Sim.create: clock must be virtual") (fun () ->
      ignore (Sim.create ~pool ~clock:(Timer.wall ()) ()));
  Alcotest.check_raises "wall clock rejected by the ripple tracer"
    (Invalid_argument "Sim.ripple_tracer: clock must be virtual") (fun () ->
      let (_ : pos:int -> slot:int -> sequential:bool -> unit) =
        Sim.ripple_tracer ~clock:(Timer.wall ()) ()
      in
      ())

let test_sim_walker_sink_charges () =
  let read, pool = paged_column ~rows:1_000 ~pool_pages:10 in
  let clock = Timer.virtual_ () in
  (* Opening the table faulted its null bitmap in: never charged. *)
  Alcotest.(check bool) "faults before create" true (Buffer_pool.misses pool > 0);
  let sim = Sim.create ~pool ~clock () in
  let sink = Sim.sink sim in
  let m = Cost_model.default in
  (* A walk that faulted one page: one of its steps is a random I/O. *)
  ignore (read 0);
  Sink.emit sink (Event.Walk_succeeded { cost = 3 });
  let one = (3.0 *. m.ram_access) +. (m.random_io -. m.ram_access) in
  check_float "miss cost" one (Timer.elapsed clock);
  (* Same page again: a hit, so every step is a RAM access. *)
  ignore (read 1);
  Sink.emit sink (Event.Walk_failed { depth = 1; cost = 2 });
  check_float "hit cost" (one +. (2.0 *. m.ram_access)) (Timer.elapsed clock);
  (* No other event charges. *)
  ignore (read 500);
  Sink.emit sink Event.Walk_started;
  Sink.emit sink (Event.Stopped Event.Time_up);
  check_float "walk events only" (one +. (2.0 *. m.ram_access)) (Timer.elapsed clock);
  check_float "clock = charges" (Sim.charged_seconds sim) (Timer.elapsed clock)

let test_sim_ripple_tracer () =
  let clock = Timer.virtual_ () in
  let m = Cost_model.default in
  let trace = Sim.ripple_tracer ~clock () in
  trace ~pos:0 ~slot:0 ~sequential:true;
  check_float "first tuple of a page" m.seq_io (Timer.elapsed clock);
  trace ~pos:0 ~slot:1 ~sequential:true;
  check_float "same page" (m.seq_io +. m.ram_access) (Timer.elapsed clock);
  trace ~pos:1 ~slot:999 ~sequential:false;
  check_float "sampled tuple"
    (m.seq_io +. m.ram_access +. m.random_io)
    (Timer.elapsed clock);
  trace ~pos:0 ~slot:m.rows_per_page ~sequential:true;
  check_float "next page"
    (m.seq_io +. m.ram_access +. m.random_io +. m.seq_io)
    (Timer.elapsed clock)

let q3 =
  lazy
    (let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.01 () in
     Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q3 d)

let test_sim_ripple_pinned () =
  (* A fixed-seed random-order ripple over Q3, charged on a virtual
     clock.  The figure was pinned when the tracer kept each table's
     pages in an LRU pool of 64 pages; the closed form must reproduce it
     bit for bit. *)
  let q = Lazy.force q3 in
  let reg = Wj_tpch.Queries.registry q in
  let clock = Timer.virtual_ () in
  let o =
    Wj_ripple.Ripple.run ~seed:5 ~clock ~max_time:1e9 ~max_rounds:20_000
      ~tuple_tracer:(Sim.ripple_tracer ~clock ()) q reg
  in
  let bits = Int64.bits_of_float in
  Alcotest.(check int) "successes" 114 o.final.successes;
  Alcotest.(check int64) "charged seconds" (bits 0x1.2ece49a48eb11p-6)
    (bits (Timer.elapsed clock))

let test_sim_scan_and_warm () =
  (* A full scan before [create] (an index build, or warming the pool)
     is never charged, and over a warm pool a walk costs RAM time only. *)
  let rows = 10 * Cost_model.default.rows_per_page in
  let read, pool = paged_column ~rows ~pool_pages:1000 in
  for row = 0 to rows - 1 do
    ignore (read row)
  done;
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool ~clock () in
  let sink = Sim.sink sim in
  check_float "scan free" 0.0 (Timer.elapsed clock);
  ignore (read 0);
  ignore (read (rows - 1));
  Sink.emit sink (Event.Walk_succeeded { cost = 2 });
  check_float "warmed pages hit" (2.0 *. Cost_model.default.ram_access) (Timer.elapsed clock)

let test_sim_end_to_end_locality () =
  (* A tiny-pool simulation of random walks over a big table must cost more
     per walk than one with a big pool. *)
  let run pool_pages =
    let read, pool = paged_column ~rows:100_000 ~pool_pages in
    let clock = Timer.virtual_ () in
    let sink = Sim.sink (Sim.create ~pool ~clock ()) in
    let prng = Wj_util.Prng.create 3 in
    for _ = 1 to 2000 do
      ignore (read (Wj_util.Prng.int prng 100_000));
      Sink.emit sink (Event.Walk_succeeded { cost = 1 })
    done;
    Timer.elapsed clock
  in
  let small = run 4 and large = run 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "small pool slower (%.4f vs %.4f)" small large)
    true (small > large)

let test_sim_online_session_pinned () =
  (* A fixed-seed, fixed-budget Q3 session (optimizer trials included)
     over paged tables and a 200-page pool, on a virtual clock.  The
     expected figures are pinned: a change to the pager's fault sequence
     or to the charge formula moves them, and so does a change to the
     optimizer's trials (all but the estimate, which depends on the
     chosen plan alone). *)
  let q = Lazy.force q3 in
  let tables, pool = paged ~pool_pages:200 (Array.to_list q.Wj_core.Query.tables) in
  let q = { q with Wj_core.Query.tables = Array.of_list tables } in
  let reg = Wj_tpch.Queries.registry q in
  (* Count the session's reads alone, not the index builds'. *)
  Buffer_pool.reset_stats pool;
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool ~clock () in
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
    "charged seconds" (bits 0x1.03d9ca0b514dcp+2)
    (bits (Sim.charged_seconds sim));
  Alcotest.(check int64)
    "clock = charges" (bits (Sim.charged_seconds sim))
    (bits (Timer.elapsed clock));
  Alcotest.(check int) "pool misses" 40_045 (Buffer_pool.misses pool);
  Alcotest.(check int) "pool hits" 11_053 (Buffer_pool.hits pool)

let () =
  Alcotest.run "wj_iosim"
    [
      ( "buffer_pool",
        [
          Alcotest.test_case "hits and misses" `Quick test_pool_hits_and_misses;
          Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "tables disambiguated" `Quick test_pool_files_disambiguated;
          Alcotest.test_case "clear and stats" `Quick test_pool_clear_and_stats;
          Alcotest.test_case "eviction keeps counters" `Quick
            test_pool_eviction_keeps_counters;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "heavy churn" `Quick test_pool_heavy_churn;
          Alcotest.test_case "capacity not preallocated" `Quick
            test_pool_capacity_not_preallocated;
        ] );
      ("cost_model", [ Alcotest.test_case "arithmetic" `Quick test_cost_model ]);
      ( "sim",
        [
          Alcotest.test_case "virtual clock required" `Quick test_sim_requires_virtual_clock;
          Alcotest.test_case "walker sink" `Quick test_sim_walker_sink_charges;
          Alcotest.test_case "ripple tracer" `Quick test_sim_ripple_tracer;
          Alcotest.test_case "ripple charge pinned" `Quick test_sim_ripple_pinned;
          Alcotest.test_case "scan and warm" `Quick test_sim_scan_and_warm;
          Alcotest.test_case "locality effect" `Quick test_sim_end_to_end_locality;
          Alcotest.test_case "online session pinned" `Quick
            test_sim_online_session_pinned;
        ] );
    ]
