(* External-memory storage tests: the byte-frame pager, paged table
   round-trips, backend equivalence (paged estimates bit-for-bit equal
   to in-memory), and a reference LRU as a fault-count oracle. *)

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
module Queries = Wj_tpch.Queries
module Generator = Wj_tpch.Generator
open Column_reads

(* One scratch directory per process; tables get unique subdirectory
   names so cases never collide. *)
let scratch = lazy (Backend.temp_dir "wj_extmem")

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

(* A reference LRU over a list, most recent first: [access] answers
   whether [page] was resident and makes it the most recent. *)
let lru_model capacity =
  let pages = ref [] in
  fun page ->
    let hit = List.mem page !pages in
    let recent = page :: List.filter (( <> ) page) !pages in
    pages := List.filteri (fun i _ -> i < capacity) recent;
    hit

(* Exact replay: one int column, so page [row / 32] of its segment holds
   row [row].  Replaying 5,000 random reads against the paged table and
   against the reference LRU of the same capacity must produce identical
   hit/miss streams. *)
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
  let access = lru_model cap in
  let prng = Wj_util.Prng.create 1234 in
  let read = ints_of p 0 in
  let hits = ref 0 in
  for i = 1 to 5_000 do
    let row = Wj_util.Prng.int prng n in
    let before = Buffer_pool.hits pool in
    let v = read row in
    if v <> row * 3 then Alcotest.failf "bad value %d at row %d" v row;
    let hit = Buffer_pool.hits pool > before in
    if hit then incr hits;
    if hit <> access (row / Wj_storage.Segment.default_rows_per_page) then
      Alcotest.failf "read %d (row %d): pool %s, model disagrees" i row
        (if hit then "hit" else "missed")
  done;
  Alcotest.(check int) "every read counted" 5_000 (Buffer_pool.accesses pool);
  Alcotest.(check int) "hits agree" !hits (Buffer_pool.hits pool);
  Alcotest.(check bool) "the pool evicted" true (Buffer_pool.misses pool > n / 32)

(* ---- Paged-backend goldens -------------------------------------------- *)

let dataset = lazy (Generator.generate ~seed:7 ~sf:0.01 ())

(* Q3's First_enumerated golden from test_layout: the paged backend must
   reproduce the historical estimate bit for bit, not just agree with
   today's in-memory code. *)
let q3_first_golden = "0x1.ea21a8558ac29p+24"

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

(* A trie built over a paged table reads its key columns through the pool,
   in row order; it must hold the same rows in the same slots as the trie
   over the in-memory table, one column or two. *)
let test_paged_trie () =
  let d = Lazy.force dataset in
  let q_mem = Queries.build ~variant:Standard Queries.Q3 d in
  let q_paged, pool = paged_query Queries.Q3 in
  Array.iteri
    (fun pos mem ->
      let paged = q_paged.Query.tables.(pos) in
      let schema = Table.schema mem in
      let ints =
        List.filter
          (fun c -> Schema.ty_of schema c = Value.TInt)
          (List.init (Schema.arity schema) Fun.id)
      in
      let check columns =
        let rows t = Wj_index.Trie.rows (Wj_index.Trie.build t ~columns:(Array.of_list columns)) in
        Alcotest.(check bool)
          (Printf.sprintf "%s trie on [%s]" (Table.name mem)
             (String.concat ";" (List.map string_of_int columns)))
          true
          (rows mem = rows paged)
      in
      List.iter (fun c -> check [ c ]) ints;
      match ints with a :: b :: _ -> check [ b; a ] | _ -> ())
    q_mem.Query.tables;
  Alcotest.(check bool) "paged builds faulted pages" true (Buffer_pool.misses pool > 0)

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

(* A segment truncated after it was opened: faulting a page past the new
   end raises the typed error naming the file and the page, not
   [Failure]. *)
let test_short_read () =
  let page_bytes = 16 in
  let path = Filename.concat (Lazy.force scratch) "short_read.seg" in
  let w = Wj_storage.Segment.create_writer path ~page_bytes in
  for i = 0 to 7 do
    Wj_storage.Segment.put_int w i
  done;
  Wj_storage.Segment.close_writer w;
  let pool = Buffer_pool.create ~page_bytes ~capacity:4 () in
  let f = Wj_storage.Segment.open_file pool path in
  Unix.truncate path (2 * page_bytes);
  (match Wj_storage.Segment.read_int f 5 with
  | v -> Alcotest.failf "read %d past the end" v
  | exception Wj_storage.Segment.Short_read { path = p; page } ->
    Alcotest.(check string) "path" path p;
    Alcotest.(check int) "page" 2 page);
  Alcotest.(check int) "a page before the new end still reads" 3
    (Wj_storage.Segment.read_int f 3)

let () =
  Alcotest.run "wj_extmem"
    [
      ( "pager",
        [
          Alcotest.test_case "read faults and re-reads" `Quick test_read_faults_and_rereads;
          Alcotest.test_case "read evicts the LRU page" `Quick test_read_evicts_lru;
          Alcotest.test_case "a truncated segment raises Short_read" `Quick test_short_read;
        ] );
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest paged_roundtrip;
          Alcotest.test_case "paged is read-only + geometry checked" `Quick
            test_paged_read_only;
          Alcotest.test_case "trie over a paged table == in-memory" `Quick test_paged_trie;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact replay equals an LRU model" `Quick
            test_fault_oracle_exact_replay;
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
