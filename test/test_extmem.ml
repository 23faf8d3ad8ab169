(* External-memory storage tests: the byte-frame pager, paged table
   round-trips, backend equivalence (paged estimates bit-for-bit equal
   to in-memory), and the iosim cost model as a fault-count oracle. *)

module Buffer_pool = Wj_storage.Buffer_pool
module Backend = Wj_storage.Backend
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Query = Wj_core.Query
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Registry = Wj_core.Registry
module Exact = Wj_exec.Exact
module Sim = Wj_iosim.Sim
module Cost_model = Wj_iosim.Cost_model
module Timer = Wj_util.Timer
module Queries = Wj_tpch.Queries
module Generator = Wj_tpch.Generator
open Column_reads

(* One scratch directory per process; tables get unique subdirectory
   names so cases never collide. *)
let scratch = lazy (Filename.temp_dir "wj_extmem" "")

let hex f = Printf.sprintf "%h" f

(* ---- Pager mechanics --------------------------------------------------- *)

(* A synthetic backing file: page [p] is filled with byte 'a' + p, and
   every fault is logged so read-through behaviour is observable. *)
let synthetic_file pool ~page_bytes faults =
  Buffer_pool.register_file pool (fun page buf ->
      faults := page :: !faults;
      Bytes.fill buf 0 page_bytes (Char.chr (Char.code 'a' + page)))

let test_read_faults_and_rereads () =
  let page_bytes = 16 in
  let pool = Buffer_pool.create ~page_bytes ~capacity:4 () in
  let faults = ref [] in
  let fid = synthetic_file pool ~page_bytes faults in
  let b0 = Buffer_pool.read pool ~file:fid ~page:0 in
  Alcotest.(check char) "faulted content" 'a' (Bytes.get b0 0);
  Alcotest.(check int) "one fault" 1 (List.length !faults);
  (* Still resident: a re-read hits without re-reading. *)
  let b0' = Buffer_pool.read pool ~file:fid ~page:0 in
  Alcotest.(check char) "cached content" 'a' (Bytes.get b0' 0);
  Alcotest.(check int) "no second fault" 1 (List.length !faults);
  Alcotest.(check int) "hit counted" 1 (Buffer_pool.hits pool);
  Alcotest.(check int) "miss counted" 1 (Buffer_pool.misses pool)

let test_read_evicts_lru () =
  let page_bytes = 16 in
  let pool = Buffer_pool.create ~page_bytes ~capacity:2 () in
  let faults = ref [] in
  let fid = synthetic_file pool ~page_bytes faults in
  let read page = Bytes.get (Buffer_pool.read pool ~file:fid ~page) 0 in
  ignore (read 0);
  ignore (read 1);
  ignore (read 0);
  (* Page 1 is least recently used: page 2 takes its frame. *)
  Alcotest.(check char) "page 2 faulted in" 'c' (read 2);
  Alcotest.(check (list int)) "faults so far" [ 2; 1; 0 ] !faults;
  Alcotest.(check char) "page 0 still resident" 'a' (read 0);
  Alcotest.(check int) "page 0 hit" 3 (List.length !faults);
  (* The evicted page re-faults with its own contents. *)
  Alcotest.(check char) "refault content" 'b' (read 1);
  Alcotest.(check (list int)) "page 1 re-faulted" [ 1; 2; 1; 0 ] !faults;
  Alcotest.(check int) "capacity respected" 2 (Buffer_pool.resident pool);
  (* A touch-mode entry holds no bytes, even on a node recycled from a
     framed one: reading its page counts a hit and faults the bytes in. *)
  ignore (Buffer_pool.touch pool ~table:fid ~page:5);
  let hits = Buffer_pool.hits pool in
  Alcotest.(check char) "touched page read" 'f' (read 5);
  Alcotest.(check int) "touched page hit" (hits + 1) (Buffer_pool.hits pool);
  Alcotest.(check (list int)) "touched page faulted" [ 5; 1; 2; 1; 0 ] !faults;
  Alcotest.check_raises "unregistered file"
    (Invalid_argument "Buffer_pool.read: unregistered file") (fun () ->
      ignore (Buffer_pool.read pool ~file:(fid + 1) ~page:0));
  (* A failed fault leaves no entry behind: the next read faults again
     rather than returning a recycled frame's stale bytes. *)
  let broken = Buffer_pool.register_file pool (fun _ _ -> failwith "disk") in
  for _ = 1 to 2 do
    Alcotest.check_raises "fault error propagates" (Failure "disk") (fun () ->
        ignore (Buffer_pool.read pool ~file:broken ~page:0))
  done;
  Alcotest.(check int) "failed faults not resident" 1 (Buffer_pool.resident pool);
  Alcotest.(check int) "every read counted" (Buffer_pool.accesses pool)
    (Buffer_pool.hits pool + Buffer_pool.misses pool);
  Buffer_pool.clear pool;
  Alcotest.(check int) "clear drops pages" 0 (Buffer_pool.resident pool);
  Alcotest.(check int) "clear drops stats" 0 (Buffer_pool.accesses pool);
  Alcotest.(check char) "cleared page re-faults" 'b' (read 1);
  Alcotest.(check int) "one miss after clear" 1 (Buffer_pool.misses pool)

(* ---- Paged round-trip property ----------------------------------------- *)

(* Same generator family as test_layout's columnar round-trip: every cell
   schema-valid or Null, small string alphabet so the dictionary sees
   repeats. *)
let value_gen ty =
  QCheck.Gen.(
    match ty with
    | Value.TInt ->
      frequency
        [
          (9, map (fun i -> Value.Int i) (int_range (-10_000) 10_000));
          (1, return Value.Null);
        ]
    | Value.TFloat ->
      frequency
        [
          ( 9,
            map
              (fun i -> Value.Float (float_of_int i /. 16.0))
              (int_range (-100_000) 100_000) );
          (1, return Value.Null);
        ]
    | Value.TStr ->
      frequency
        [
          (9, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab"; "FURNITURE"; "x|y" ]));
          (1, return Value.Null);
        ])

let table_gen =
  QCheck.Gen.(
    list_size (int_range 1 6) (oneofl [ Value.TInt; Value.TFloat; Value.TStr ])
    >>= fun tys ->
    list_size (int_range 0 50) (flatten_l (List.map value_gen tys))
    >>= fun rows -> return (tys, rows))

let print_case (tys, rows) =
  let ty = function Value.TInt -> "int" | Value.TFloat -> "float" | Value.TStr -> "str" in
  Printf.sprintf "schema=[%s] rows=[%s]"
    (String.concat ";" (List.map ty tys))
    (String.concat "; "
       (List.map
          (fun r ->
            String.concat ","
              (List.map (fun v -> Format.asprintf "%a" Value.pp v) r))
          rows))

let case_counter = ref 0

let paged_roundtrip =
  QCheck.Test.make
    ~name:"paged table through a 4-page pool equals in-memory, cell for cell"
    ~count:150
    (QCheck.make ~print:print_case table_gen)
    (fun (tys, rows) ->
      let schema =
        Schema.make
          (List.mapi (fun i ty -> { Schema.name = Printf.sprintf "c%d" i; ty }) tys)
      in
      incr case_counter;
      let name = Printf.sprintf "prop%d" !case_counter in
      let t = Table.create ~capacity:1 ~name ~schema () in
      List.iter (fun r -> ignore (Table.insert t (Array.of_list r))) rows;
      let dir = Lazy.force scratch in
      Table.write_pages t ~dir;
      (* A deliberately tiny pool: every column segment is bigger than
         what stays resident, so reads genuinely churn pages. *)
      let pool = Buffer_pool.create ~page_bytes:Backend.page_bytes ~capacity:4 () in
      let p = Table.open_paged ~pool ~dir ~name in
      if not (Table.is_paged p) then QCheck.Test.fail_report "reopened table not paged";
      if Table.length p <> Table.length t then
        QCheck.Test.fail_reportf "length %d, want %d" (Table.length p) (Table.length t);
      for i = 0 to Table.length t - 1 do
        for c = 0 to Schema.arity schema - 1 do
          let want = Table.cell t i c and got = Table.cell p i c in
          if not (Value.equal want got) then
            QCheck.Test.fail_reportf "cell (%d,%d): %s, want %s" i c
              (Format.asprintf "%a" Value.pp got)
              (Format.asprintf "%a" Value.pp want);
          if is_null t i c <> is_null p i c then
            QCheck.Test.fail_reportf "null bit (%d,%d) differs" i c;
          match Schema.ty_of schema c with
          | Value.TInt ->
            if ints_of t c i <> ints_of p c i then
              QCheck.Test.fail_reportf "int slot (%d,%d) differs (sentinel?)" i c
          | Value.TFloat ->
            if not (Int64.equal
                      (Int64.bits_of_float (floats_of t c i))
                      (Int64.bits_of_float (floats_of p c i)))
            then QCheck.Test.fail_reportf "float slot (%d,%d) bits differ" i c
          | Value.TStr ->
            (* Dictionary ids must survive paging exactly: compiled
               predicates compare raw ids across backends. *)
            if ints_of t c i <> ints_of p c i then
              QCheck.Test.fail_reportf "str id (%d,%d) differs" i c
        done
      done;
      (* Dictionary contents and lookup survive too. *)
      List.iteri
        (fun c ty ->
          if ty = Value.TStr && dict_of t c <> dict_of p c then
            QCheck.Test.fail_reportf "dictionary of col %d differs" c)
        tys;
      true)

let test_paged_read_only () =
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.TInt } ] in
  let t = Table.create ~name:"ro" ~schema () in
  ignore (Table.insert t [| Value.Int 1 |]);
  let dir = Lazy.force scratch in
  Table.write_pages t ~dir;
  let pool = Buffer_pool.create ~page_bytes:Backend.page_bytes ~capacity:4 () in
  let p = Table.open_paged ~pool ~dir ~name:"ro" in
  Alcotest.check_raises "push rejected"
    (Invalid_argument "Table.push_int(ro): paged table is read-only") (fun () ->
      Table.push_int p ~col:0 2);
  Alcotest.check_raises "page-size mismatch detected"
    (Invalid_argument
       "Table.open_paged(ro): segments use 32 rows/page (256-byte pages) but \
        the pool's frames are 64 bytes") (fun () ->
      ignore
        (Table.open_paged
           ~pool:(Buffer_pool.create ~page_bytes:64 ~capacity:4 ())
           ~dir ~name:"ro"))

(* ---- Fault-count oracle ------------------------------------------------ *)

(* Exact replay: one int column, so one storage page of 32 rows is one
   cost-model page of 32 rows.  Replaying an identical access sequence
   against the paged table and against a touch-mode pool of the same
   capacity must produce identical hit/miss streams. *)
let test_fault_oracle_exact_replay () =
  let n = 1_000 in
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.TInt } ] in
  let t = Table.create ~capacity:n ~name:"oracle" ~schema () in
  for i = 0 to n - 1 do
    Table.push_int t ~col:0 (i * 3);
    ignore (Table.commit_row t)
  done;
  let dir = Lazy.force scratch in
  Table.write_pages t ~dir;
  let cap = 8 in
  let pool = Buffer_pool.create ~page_bytes:Backend.page_bytes ~capacity:cap () in
  let p = Table.open_paged ~pool ~dir ~name:"oracle" in
  (* Drop the open-time faults (null bitmap) so both pools start cold. *)
  Buffer_pool.clear pool;
  let model = Cost_model.default in
  let oracle = Buffer_pool.create ~capacity:cap () in
  let prng = Wj_util.Prng.create 1234 in
  let read = ints_of p 0 in
  for _ = 1 to 5_000 do
    let row = Wj_util.Prng.int prng n in
    let v = read row in
    if v <> row * 3 then Alcotest.failf "bad value %d at row %d" v row;
    ignore (Buffer_pool.touch oracle ~table:0 ~page:(row / model.Cost_model.rows_per_page))
  done;
  Alcotest.(check int) "accesses agree" (Buffer_pool.accesses oracle)
    (Buffer_pool.accesses pool);
  Alcotest.(check int) "misses agree exactly" (Buffer_pool.misses oracle)
    (Buffer_pool.misses pool);
  Alcotest.(check int) "hits agree exactly" (Buffer_pool.hits oracle)
    (Buffer_pool.hits pool)

(* End-to-end: a real wander-join run over a paged 2-table join with the
   pool at 25% of the dataset's data pages.  The iosim cost model,
   driven by the walker's Row_access events from an in-memory run with
   the same seed, predicts the fault count; the measured faults must be
   within 2x (the acceptance bound — in practice they are near-equal,
   since both sides key pages as (table, row/32)). *)
let join_fixture () =
  let n = 4_096 and m = 8_192 in
  let int_schema nm = Schema.make [ { Schema.name = nm; ty = Value.TInt } ] in
  let a = Table.create ~capacity:n ~name:"ext_a" ~schema:(int_schema "akey") () in
  for i = 0 to n - 1 do
    Table.push_int a ~col:0 i;
    ignore (Table.commit_row a)
  done;
  let b = Table.create ~capacity:m ~name:"ext_b" ~schema:(int_schema "bkey") () in
  let prng = Wj_util.Prng.create 99 in
  for _ = 0 to m - 1 do
    Table.push_int b ~col:0 (Wj_util.Prng.int prng n);
    ignore (Table.commit_row b)
  done;
  let query ta tb =
    Query.make
      ~tables:[ ("a", ta); ("b", tb) ]
      ~joins:[ { Query.left = (0, 0); right = (1, 0); op = Query.Eq } ]
      ~agg:Wj_stats.Estimator.Sum ~expr:(Query.Col (1, 0)) ()
  in
  (a, b, query)

let data_pages rows = (rows + 31) / 32

let test_fault_oracle_join_run () =
  let a, b, query = join_fixture () in
  let walks = 3_000 and seed = 424242 in
  let total_pages = data_pages (Table.length a) + data_pages (Table.length b) in
  let pool_pages = total_pages / 4 in
  (* Predicted: in-memory run, walker events into the iosim oracle. *)
  let q_mem = query a b in
  let reg_mem = Registry.build_for_query q_mem in
  let clock = Timer.virtual_ () in
  let sim = Sim.create ~pool_pages ~clock () in
  let out_mem =
    Online.run_session
      (Run_config.make ~seed ~max_time:infinity ~max_walks:walks
         ~plan_choice:Online.First_enumerated ~sink:(Sim.sink sim) ())
      q_mem reg_mem
  in
  let predicted = Buffer_pool.misses (Sim.pool sim) in
  (* Measured: the same run over the paged backend. *)
  let backend = Backend.Paged { dir = Lazy.force scratch; pool_pages } in
  let tables, pool = Backend.prepare_tables backend [ a; b ] in
  let pool = Option.get pool in
  let pa, pb = (List.nth tables 0, List.nth tables 1) in
  let q_paged = query pa pb in
  let reg_paged = Registry.build_for_query q_paged in
  (* Index builds scanned every page; start the measurement cold. *)
  Buffer_pool.clear pool;
  let out_paged =
    Online.run_session
      (Run_config.make ~seed ~max_time:infinity ~max_walks:walks
         ~plan_choice:Online.First_enumerated ())
      q_paged reg_paged
  in
  let measured = Buffer_pool.misses pool in
  Alcotest.(check string) "paged estimate bit-for-bit equal"
    (hex out_mem.Online.final.estimate)
    (hex out_paged.Online.final.estimate);
  Alcotest.(check bool)
    (Printf.sprintf "pool is <= 25%% of dataset (%d of %d pages)" pool_pages
       total_pages)
    true
    (pool_pages * 4 <= total_pages);
  if predicted = 0 then Alcotest.fail "oracle predicted zero faults";
  let ratio = float_of_int measured /. float_of_int predicted in
  if not (ratio >= 0.5 && ratio <= 2.0) then
    Alcotest.failf "measured %d faults vs predicted %d (ratio %.3f, want within 2x)"
      measured predicted ratio

(* ---- Paged-backend goldens -------------------------------------------- *)

let dataset = lazy (Generator.generate ~seed:7 ~sf:0.01 ())

(* Q3's First_enumerated golden from test_layout: the paged backend must
   reproduce the historical estimate bit for bit, not just agree with
   today's in-memory code. *)
let q3_first_golden = "0x1.1e3fa44c264bfp+25"

let paged_query spec =
  let d = Lazy.force dataset in
  let q = Queries.build ~variant:Standard spec d in
  let backend =
    Backend.paged ~dir:(Lazy.force scratch) ()
  in
  let tables, pool =
    Backend.prepare_tables backend (Array.to_list q.Query.tables)
  in
  ({ q with Query.tables = Array.of_list tables }, Option.get pool)

let run_first q reg =
  Online.run_session
    (Run_config.make ~seed:424242 ~max_time:infinity ~max_walks:20_000
       ~plan_choice:Online.First_enumerated ())
    q reg

let test_paged_golden spec () =
  let d = Lazy.force dataset in
  let name = Queries.name_of spec in
  let q_mem = Queries.build ~variant:Standard spec d in
  let reg_mem = Queries.registry q_mem in
  let out_mem = run_first q_mem reg_mem in
  let q_paged, pool = paged_query spec in
  let reg_paged = Queries.registry q_paged in
  let out_paged = run_first q_paged reg_paged in
  Alcotest.(check string)
    (name ^ " paged estimate == in-memory estimate")
    (hex out_mem.Online.final.estimate)
    (hex out_paged.Online.final.estimate);
  Alcotest.(check int)
    (name ^ " same successes")
    out_mem.Online.final.successes out_paged.Online.final.successes;
  Alcotest.(check bool) (name ^ " paged run faulted pages") true
    (Buffer_pool.misses pool > 0);
  if spec = Queries.Q3 then begin
    Alcotest.(check string) "Q3 historical golden reproduced" q3_first_golden
      (hex out_paged.Online.final.estimate);
    (* The optimizer path and the exact executor read through pages too. *)
    let opt_cfg =
      Run_config.make ~seed:424242 ~max_time:infinity ~max_walks:20_000 ()
    in
    let opt_mem = Online.run_session opt_cfg q_mem reg_mem in
    let opt_paged = Online.run_session opt_cfg q_paged reg_paged in
    Alcotest.(check string) "Q3 optimized estimate equal"
      (hex opt_mem.Online.final.estimate)
      (hex opt_paged.Online.final.estimate);
    Alcotest.(check string) "Q3 plan choice equal" opt_mem.Online.plan_description
      opt_paged.Online.plan_description;
    let e_mem = Exact.aggregate q_mem reg_mem in
    let e_paged = Exact.aggregate q_paged reg_paged in
    Alcotest.(check string) "Q3 exact equal" (hex e_mem.Exact.value)
      (hex e_paged.Exact.value);
    Alcotest.(check int) "Q3 join size equal" e_mem.Exact.join_size
      e_paged.Exact.join_size
  end

(* ---- Backend through Run_config and the SQL engine --------------------- *)

let test_sql_backend_equivalence () =
  let d = Lazy.force dataset in
  let sql =
    "SELECT ONLINE SUM(l_extendedprice) FROM customer, orders, lineitem WHERE \
     c_custkey = o_custkey AND o_orderkey = l_orderkey"
  in
  let run backend =
    let catalog = Generator.catalog d in
    let cfg =
      Wj_core.Run_config.make ~seed:31337 ~max_time:infinity ~max_walks:2_000
        ~plan_choice:Wj_core.Run_config.First_enumerated ~backend ()
    in
    let r = Wj_sql.Engine.execute_session cfg catalog sql in
    match r.Wj_sql.Engine.items with
    | [ (_, Wj_sql.Engine.Online_scalar o) ] -> o.Online.final.estimate
    | _ -> Alcotest.fail "unexpected result shape"
  in
  let mem = run Backend.In_memory in
  let paged =
    run (Backend.Paged { dir = Lazy.force scratch; pool_pages = 256 })
  in
  Alcotest.(check string) "SQL estimates equal across backends" (hex mem) (hex paged)

(* The buffer pool is single-domain: serving paged tables on more than one
   domain is refused before any session is admitted, whether the catalog
   arrives paged or [cfg.backend] pages it. *)
let test_serve_paged_needs_one_domain () =
  let d = Lazy.force dataset in
  let sql =
    "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey"
  in
  let admitted = ref 0 in
  let sink =
    Wj_obs.Sink.of_fn (function
      | Wj_obs.Event.Session_admitted _ -> incr admitted
      | _ -> ())
  in
  let cfg backend =
    Run_config.make ~seed:5 ~max_time:infinity ~max_walks:500
      ~plan_choice:Run_config.First_enumerated ~backend ()
  in
  let paged = Backend.Paged { dir = Lazy.force scratch; pool_pages = 256 } in
  let refused name cfg catalog =
    Alcotest.check_raises name
      (Invalid_argument "Sql.Engine.serve: paged tables need domains = 1")
      (fun () -> ignore (Wj_sql.Engine.serve ~domains:2 ~sink cfg catalog [ sql ]))
  in
  refused "paged catalog" (cfg Backend.In_memory)
    (fst (Backend.prepare_catalog paged (Generator.catalog d)));
  refused "paged by cfg.backend" (cfg paged) (Generator.catalog d);
  Alcotest.(check int) "nothing admitted" 0 !admitted;
  (* One domain over paged tables, and two over in-memory ones, serve. *)
  List.iter
    (fun (domains, backend) ->
      match Wj_sql.Engine.serve ~domains (cfg backend) (Generator.catalog d) [ sql ] with
      | [ { Wj_sql.Engine.served_items = [ item ]; _ } ] ->
        Alcotest.(check string)
          (Printf.sprintf "%d domain(s) served" domains)
          "done"
          (Wj_service.Scheduler.state_name item.Wj_sql.Engine.session_state)
      | _ -> Alcotest.fail "unexpected served shape")
    [ (1, paged); (2, Backend.In_memory) ]

let () =
  Alcotest.run "wj_extmem"
    [
      ( "pager",
        [
          Alcotest.test_case "read faults and re-reads" `Quick test_read_faults_and_rereads;
          Alcotest.test_case "read evicts the LRU page" `Quick test_read_evicts_lru;
        ] );
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest paged_roundtrip;
          Alcotest.test_case "paged is read-only + geometry checked" `Quick
            test_paged_read_only;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact replay equals touch-mode pool" `Quick
            test_fault_oracle_exact_replay;
          Alcotest.test_case "join run within 2x of iosim prediction" `Slow
            test_fault_oracle_join_run;
        ] );
      ( "golden",
        List.map
          (fun spec ->
            Alcotest.test_case
              (Queries.name_of spec ^ " paged == in-memory, bit for bit")
              `Slow (test_paged_golden spec))
          [ Queries.Q3; Queries.Q7; Queries.Q10 ] );
      ( "sql",
        [
          Alcotest.test_case "Run_config.backend through the engine" `Slow
            test_sql_backend_equivalence;
          Alcotest.test_case "serve refuses domains > 1 over paged tables" `Quick
            test_serve_paged_needs_one_domain;
        ] );
    ]
