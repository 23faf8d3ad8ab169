(* The in-process workloads: one query walked through the library, set up
   from a fresh heap, run to a relative CI target again and again, and
   (traced) taken apart layer by layer. *)

module M = Measure
module Json = Wj_daemon.Json
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Walker = Wj_core.Walker
module Prng = Wj_util.Prng
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Catalog = Wj_storage.Catalog
module Backend = Wj_storage.Backend
module Buffer_pool = Wj_storage.Buffer_pool
module Generator = Wj_tpch.Generator
module Queries = Wj_tpch.Queries

type data = {
  mem_q : Query.t;  (** the query over in-memory tables *)
  catalog : Catalog.t;  (** what the traced run's in-process wjd serves *)
  sql : string;  (** the same query in the SQL dialect *)
}

(* Every workload walks one fixed database, as dbgen's TPC-H data is fixed
   for a scale factor; the run's seed picks the sampling seeds.  Data
   generated from the run's seed moved Q7's walks to target by 20% and its
   true answer by 1.7x from seed to seed, more than the bound a change is
   judged by. *)
let data_seed = 7

type spec = {
  name : string;
  sf : float;  (** TPC-H scale factor; 0 for synthetic data *)
  generate : seed:int -> data;  (** called with [data_seed] *)
  truth : Query.t -> Registry.t -> float;
  target : float;  (** relative CI half-width every session runs to *)
  pool_pages : int option;  (** [Some p]: paged backend, pool of [p] pages *)
  ledger_walks : int;  (** cap on the ledger's N *)
  probe_walks : int;  (** main-loop walks per in-process wjd request *)
  probe_requests : int;
}

(* ---- data ----------------------------------------------------------------- *)

let tpch spec ~sf ~sql ~seed =
  let d = Generator.generate ~seed ~sf () in
  { mem_q = Queries.build ~variant:Queries.Standard spec d; catalog = Generator.catalog d; sql }

let q7_sql =
  Printf.sprintf
    "SELECT ONLINE SUM(l_extendedprice * (1 - l_discount)) FROM supplier, lineitem, \
     orders, customer, nation n1, nation n2 WHERE s_suppkey = l_suppkey AND o_orderkey = \
     l_orderkey AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey AND \
     c_nationkey = n2.n_nationkey AND n1.n_nationkey = %d AND n2.n_nationkey = %d AND \
     l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'"
    (Generator.nation_key "FRANCE") (Generator.nation_key "GERMANY")

let q3_sql =
  Printf.sprintf
    "SELECT ONLINE SUM(l_extendedprice * (1 - l_discount)) FROM customer, orders, \
     lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND \
     c_mktsegment_id = %d AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE \
     '1995-03-15'"
    (Generator.segment_id "BUILDING")

(* Cyclic f(a,b) ⋈ g(b,c) ⋈ h(c,a), keys uniform over [dom] values. *)
let triangle ~rows ~dom ~seed =
  let prng = Prng.create seed in
  let mk name c1 c2 =
    let t =
      Table.create ~capacity:rows ~name
        ~schema:(Schema.make [ { Schema.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    for _ = 1 to rows do
      Table.push_int t ~col:0 (Prng.int prng dom);
      Table.push_int t ~col:1 (Prng.int prng dom);
      ignore (Table.commit_row t)
    done;
    t
  in
  let f = mk "f" "a" "b" and g = mk "g" "b" "c" and h = mk "h" "c" "a" in
  let catalog = Catalog.create () in
  List.iter (Catalog.add_table catalog) [ f; g; h ];
  {
    mem_q =
      Query.make
        ~tables:[ ("f", f); ("g", g); ("h", h) ]
        ~joins:
          [
            { left = (0, 1); right = (1, 0); op = Eq };
            { left = (1, 1); right = (2, 0); op = Eq };
            { left = (2, 1); right = (0, 0); op = Eq };
          ]
        ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ();
    catalog;
    sql = "SELECT ONLINE COUNT(*) FROM f, g, h WHERE f.b = g.b AND g.c = h.c AND h.a = f.a";
  }

let exact q reg = (Wj_exec.Exact.aggregate q reg).value

(* The triangle count as trace(F·G·H) over per-table key-pair count
   matrices: exact, and far faster here than any join executor. *)
let triangle_truth ~dom (q : Query.t) _ =
  let counts t =
    let m = Array.make_matrix dom dom 0 in
    for r = 0 to Table.length t - 1 do
      let x = Table.int_cell t r 0 and y = Table.int_cell t r 1 in
      m.(x).(y) <- m.(x).(y) + 1
    done;
    m
  in
  let f = counts q.tables.(0) and g = counts q.tables.(1) and h = counts q.tables.(2) in
  let total = ref 0 in
  let fg = Array.make dom 0 in
  for a = 0 to dom - 1 do
    Array.fill fg 0 dom 0;
    for b = 0 to dom - 1 do
      let fab = f.(a).(b) and gb = g.(b) in
      if fab <> 0 then for c = 0 to dom - 1 do fg.(c) <- fg.(c) + (fab * gb.(c)) done
    done;
    for c = 0 to dom - 1 do total := !total + (fg.(c) * h.(c).(a)) done
  done;
  float_of_int !total

(* ---- workloads -------------------------------------------------------------- *)

let specs ~smoke =
  let pick ~full ~small = if smoke then small else full in
  let q7_sf = pick ~full:0.1 ~small:0.005 and q3_sf = pick ~full:0.1 ~small:0.005 in
  let rows = pick ~full:200_000 ~small:5_000 and dom = pick ~full:400 ~small:40 in
  [
    {
      name = "q7_chain";
      sf = q7_sf;
      generate = tpch Queries.Q7 ~sf:q7_sf ~sql:q7_sql;
      truth = exact;
      target = pick ~full:0.10 ~small:0.25;
      pool_pages = None;
      ledger_walks = pick ~full:200_000 ~small:4_000;
      probe_walks = pick ~full:40_000 ~small:2_000;
      probe_requests = pick ~full:10 ~small:5;
    };
    {
      name = "triangle";
      sf = 0.0;
      generate = triangle ~rows ~dom;
      truth = (fun q reg -> triangle_truth ~dom q reg);
      target = pick ~full:0.003 ~small:0.02;
      pool_pages = None;
      ledger_walks = pick ~full:300_000 ~small:4_000;
      probe_walks = pick ~full:50_000 ~small:2_000;
      probe_requests = pick ~full:10 ~small:5;
    };
    {
      name = "q3_paged";
      sf = q3_sf;
      generate = tpch Queries.Q3 ~sf:q3_sf ~sql:q3_sql;
      truth = exact;
      target = pick ~full:0.06 ~small:0.15;
      pool_pages = Some (pick ~full:4_400 ~small:120);
      ledger_walks = pick ~full:40_000 ~small:2_000;
      probe_walks = pick ~full:20_000 ~small:1_000;
      probe_requests = pick ~full:10 ~small:5;
    };
  ]

(* ---- set-up ------------------------------------------------------------------- *)

type inst = {
  data : data;
  q : Query.t;  (** the walked query: paged tables under a paged backend *)
  reg : Registry.t;
  pool : Buffer_pool.t option;
  dir : string;
  gen_s : float;
  segment_s : float;
  index_s : float;
  warmup_s : float;
  setup_s : float;
}

let session_cfg spec ~seed =
  Run_config.make ~seed ~max_time:300.0 ~target:(Wj_stats.Target.relative spec.target) ()

(* Fresh process to ready: data, storage backing, indexes, and one
   session start (its optimizer trials build the lazy tries).  The pool
   is emptied afterwards so every measured session starts cold. *)
let setup spec ~seed ~dir =
  let t0 = M.now () in
  let data, gen_s = M.time (fun () -> spec.generate ~seed:data_seed) in
  let backend =
    match spec.pool_pages with
    | None -> Backend.In_memory
    | Some pool_pages -> Backend.Paged { dir; pool_pages }
  in
  let (tables, pool), segment_s =
    M.time (fun () -> Backend.prepare_tables backend (Array.to_list data.mem_q.tables))
  in
  let q = { data.mem_q with Query.tables = Array.of_list tables } in
  let reg, index_s = M.time (fun () -> Registry.build_for_query q) in
  let (), warmup_s =
    M.time (fun () -> ignore (Online.start_session (session_cfg spec ~seed:(seed + 100)) q reg))
  in
  Option.iter Buffer_pool.clear pool;
  { data; q; reg; pool; dir; gen_s; segment_s; index_s; warmup_s; setup_s = M.now () -. t0 }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let clear inst = Option.iter Buffer_pool.clear inst.pool

(* ---- sessions ------------------------------------------------------------------ *)

(* One session from start to its stop: the time to the first estimate
   with a finite CI (advancing 16 walks at a time until there is one),
   the time to the target (65,536 walks at a time), and the outcome. *)
let to_target spec inst ~seed =
  clear inst;
  let t0 = M.now () in
  let s = Online.start_session (session_cfg spec ~seed) inst.q inst.reg in
  while
    (not (Float.is_finite (Online.Session.progress s).half_width))
    && Online.Session.stopped s = None
  do
    ignore (Online.Session.advance s ~max_steps:16)
  done;
  let first = M.now () -. t0 in
  while Online.Session.advance s ~max_steps:65536 = None do
    ()
  done;
  (first, M.now () -. t0, Online.Session.outcome s)

let check_session tally spec ~truth ~seed (out : Online.outcome) =
  M.check tally
    (out.stopped_because = Online.Target_reached)
    "%s seed %d stopped by %s" spec.name seed
    (Wj_obs.Event.stop_reason_name out.stopped_because);
  M.check_answer tally
    ~what:(Printf.sprintf "%s seed %d" spec.name seed)
    ~truth ~target:spec.target ~estimate:out.final.estimate ~half_width:out.final.half_width

(* ---- end to end ------------------------------------------------------------------ *)

(* Set-ups per run (their median is setup_s), and the least number of
   measured sessions, however short the window.  The window of a run,
   [seconds], starts before the first set-up. *)
type reps = { setups : int; sessions : int }

let reps ~smoke = if smoke then { setups = 1; sessions = 2 } else { setups = 3; sessions = 5 }

let run_e2e spec ~reps ~seed ~seconds ~workdir tally =
  let t_measure = M.now () in
  let rec set_up k prev times =
    if k = reps.setups then (Option.get prev, times)
    else begin
      Option.iter (fun i -> remove_tree i.dir) prev;
      Gc.compact ();
      let inst = setup spec ~seed ~dir:(Filename.concat workdir (Printf.sprintf "setup%d" k)) in
      set_up (k + 1) (Some inst) (inst.setup_s :: times)
    end
  in
  let inst, setup_times = set_up 0 None [] in
  let rec sessions i acc =
    if i >= reps.sessions && M.now () -. t_measure >= seconds then List.rev acc
    else
      let s = (seed * 1000) + i in
      sessions (i + 1) ((s, to_target spec inst ~seed:s) :: acc)
  in
  let runs = sessions 0 [] in
  let heap_mb = M.held_mb ~inputs:inst.data.catalog inst in
  let truth = spec.truth inst.q inst.reg in
  let outcomes = List.map (fun (_, (_, _, (o : Online.outcome))) -> o) runs in
  List.iter (fun (s, (_, _, out)) -> check_session tally spec ~truth ~seed:s out) runs;
  let times = List.map (fun (_, (_, dt, _)) -> dt) runs in
  Printf.printf "%s: %d sessions to +/-%g%%, walks %s; truth %.9g\n" spec.name
    (List.length runs) (100.0 *. spec.target)
    (String.concat " " (List.map (fun (o : Online.outcome) -> string_of_int o.final.walks) outcomes))
    truth;
  remove_tree inst.dir;
  [
    M.metric "setup_s" "s" (M.median setup_times);
    M.metric "time_to_ci_s" "s" (M.median times);
    M.metric "first_estimate_ms" "ms" (M.median (List.map (fun (_, (f, _, _)) -> 1000.0 *. f) runs));
    M.metric "heap_mb" "MB" heap_mb;
    M.metric "throughput_qps" "1/s" (float_of_int (List.length times) /. List.fold_left ( +. ) 0.0 times);
  ]

(* ---- traced --------------------------------------------------------------------- *)

let probe_body ~sql ~seed ~max_walks j =
  ( 0,
    Json.to_string
      (Json.Obj
         [
           ("sql", Json.Str sql);
           ("seed", Json.Int ((seed * 1000) + 500 + j));
           ("max_walks", Json.Int max_walks);
           ("time", Json.Float 300.0);
         ]) )

(* Checks shared by every daemon answer: a 200, a completed request and
   the expected stop reason; [fresh] judges each executed answer, and a
   cache repeat must equal its original bit for bit. *)
let check_replies tally ~what ~reason ~fresh results =
  let by_idx = Hashtbl.create 64 in
  List.iter (fun (r : Wjd_client.result) -> Hashtbl.replace by_idx r.req.idx r) results;
  List.iter
    (fun (r : Wjd_client.result) ->
      let id = Printf.sprintf "%s request %d" what r.req.idx in
      let reply = r.reply in
      let est = Wjd_client.item_float reply "estimate" in
      let hw = Wjd_client.item_float reply "half_width" in
      M.check tally
        (reply.status = 200
        && Wjd_client.final_str reply "status" = Some "done"
        && Wjd_client.item_str reply "reason" = Some reason)
        "%s: HTTP %d, status %s, reason %s" id reply.status
        (Option.value (Wjd_client.final_str reply "status") ~default:"-")
        (Option.value (Wjd_client.item_str reply "reason") ~default:"-");
      (match r.req.repeat_of with
      | None -> fresh r ~id ~estimate:est ~half_width:hw
      | Some o -> (
        match Hashtbl.find_opt by_idx o with
        | Some orig ->
          let oe = Wjd_client.item_float orig.reply "estimate" in
          let oh = Wjd_client.item_float orig.reply "half_width" in
          M.check tally
            (Int64.equal (Int64.bits_of_float oe) (Int64.bits_of_float est)
            && Int64.equal (Int64.bits_of_float oh) (Int64.bits_of_float hw))
            "%s repeats request %d: %.17g +/- %.17g vs %.17g +/- %.17g" id o est hw oe oh
        | None -> ())))
    results

(* The estimate the SQL engine computes in-process for [sql] under
   [cfg]: what wjd must return bit for bit for the same request. *)
let check_same_as_inproc tally ~what ~catalog ~sql cfg reply =
  let inproc =
    match (Wj_sql.Engine.execute_session cfg catalog sql).items with
    | [ (_, Wj_sql.Engine.Online_scalar o) ] -> o.final.estimate
    | _ -> Float.nan
  in
  let wire = Wjd_client.item_float reply "estimate" in
  M.check tally
    (Int64.equal (Int64.bits_of_float inproc) (Int64.bits_of_float wire))
    "%s: daemon %.17g, in-process %.17g" what wire inproc

let paged_catalog (q : Query.t) =
  let c = Catalog.create () in
  Array.iter
    (fun t -> if Catalog.table c (Table.name t) = None then Catalog.add_table c t)
    q.tables;
  c

(* Set-up, one session to the target, the interleaved ledger over the
   plan that session chose, and the pager pass.  Returns the instance
   and the session for the caller's daemon layers. *)
let layers spec ~seed ~workdir tally =
  let inst = setup spec ~seed ~dir:(Filename.concat workdir "setup0") in
  let q = inst.q and reg = inst.reg in
  let _, dt, out = to_target spec inst ~seed:(seed * 1000) in
  let n = min out.final.walks spec.ledger_walks in
  let plan = out.plan in
  clear inst;
  let counts =
    Ledger.count_walks (Walker.prepare q reg plan) (Ledger.indexes reg plan) ~seed ~n
  in
  let pool_stats =
    Option.map (fun p -> Buffer_pool.(misses p, hits p, accesses p)) inst.pool
  in
  let stack, side =
    Ledger.rows
      ~clear:(fun () -> clear inst)
      ~seed ~n
      ?mem_q:(Option.map (fun _ -> inst.data.mem_q) inst.pool)
      q reg plan ~probes_per_walk:counts.probes_per_walk
  in
  let stats = Ledger.interleave ~reps:3 ~n (stack @ side) in
  let stat = Ledger.median_of stats in
  let nstack = List.length stack in
  Ledger.print_ledger
    ~title:
      (Printf.sprintf "ledger %s: plan %s (%s), N = %d walks, 3 interleaved reps" spec.name
         out.plan_description (Wj_core.Walk_plan.granularity plan) n)
    (List.filteri (fun i _ -> i < nstack) stats)
    (List.filteri (fun i _ -> i >= nstack) stats);
  let pool_metrics =
    match (inst.pool, pool_stats) with
    | Some p, Some (misses, hits, accesses) ->
      let ws = Ledger.working_set q reg plan ~dir:inst.dir ~seed ~n in
      if Buffer_pool.capacity p >= ws then begin
        Printf.eprintf
          "wjbench: %s pool of %d pages holds the whole %d-page working set; it would \
           measure nothing\n"
          spec.name (Buffer_pool.capacity p) ws;
        exit 2
      end;
      Printf.printf "pager: pool %d pages = %.0f%% of a %d-page working set\n"
        (Buffer_pool.capacity p)
        (100.0 *. float_of_int (Buffer_pool.capacity p) /. float_of_int ws)
        ws;
      [
        M.metric "pool.working_set_pages" "count" (float_of_int ws);
        M.metric "pool.faults_per_walk" "count" (float_of_int misses /. float_of_int n);
        M.metric "pool.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 accesses));
        M.metric "storage.paged_walk_ratio" "ratio"
          (stat "walker.walk_ns" /. stat "walker.mem_walk_ns");
      ]
    | _ ->
      [
        M.metric "pool.working_set_pages" "count" 0.0;
        M.metric "pool.faults_per_walk" "count" 0.0;
        M.metric "pool.hit_ratio" "ratio" 1.0;
        M.metric "storage.paged_walk_ratio" "ratio" 1.0;
      ]
  in
  check_session tally spec ~truth:(spec.truth q reg) ~seed:(seed * 1000) out;
  if inst.pool <> None then
    Printf.printf "set-up: generate %.3fs, write segments %.3fs\n" inst.gen_s inst.segment_s;
  let metrics =
    [
      M.metric "setup.data_s" "s" (inst.gen_s +. inst.segment_s);
      M.metric "setup.index_build_s" "s" inst.index_s;
      M.metric "setup.plan_warmup_s" "s" inst.warmup_s;
      M.metric "registry.entries" "count" (float_of_int (Registry.total_entries reg));
      M.metric "online.walks_to_ci" "count" (float_of_int out.final.walks);
      M.metric "online.walk_ns" "ns" (dt *. 1e9 /. float_of_int out.final.walks);
      M.metric "optimizer.ms" "ms" (1000.0 *. out.optimizer_time);
      M.metric "optimizer.trial_walks" "count" (float_of_int out.optimizer_walks);
      M.metric "index.probe_ns" "ns" (stat "index.walk_ns" /. counts.probes_per_walk);
      M.metric "index.probes_per_walk" "count" counts.probes_per_walk;
      M.metric "walker.cost_per_walk" "count" counts.cost_per_walk;
      M.metric "walker.minor_words_per_walk" "words" counts.minor_words_per_walk;
      M.metric "walker.success_ratio" "ratio" counts.success_ratio;
    ]
    @ List.map
        (fun metric -> M.metric metric "ns" (stat metric))
        [
          "walker.walk_ns"; "engine.walk_ns"; "engine.b64_walk_ns";
          "engine.b64_noprefetch_walk_ns"; "driver.walk_ns"; "scheduler.walk_ns";
        ]
    @ pool_metrics
  in
  (inst, out, metrics)

(* The same statement served by an in-process wjd over the same tables,
   one client, fixed walk budgets. *)
let probe spec inst ~seed ~workdir (out : Online.outcome) tally =
  let catalog = match inst.pool with None -> inst.data.catalog | Some _ -> paged_catalog inst.q in
  let log = Filename.concat workdir "probe-access.log" in
  let daemon = Wj_daemon.Daemon.create ~port:0 ~access_log:log catalog in
  Wj_daemon.Daemon.start daemon;
  let port = Wj_daemon.Daemon.port daemon in
  let max_walks = out.optimizer_walks + spec.probe_walks in
  let results, metrics =
    Fun.protect
      ~finally:(fun () -> Wj_daemon.Daemon.stop daemon)
      (fun () ->
        let results =
          Wjd_client.run_load ~port ~clients:1
            ~continue:(fun i -> i < spec.probe_requests)
            ~make:
              (Wjd_client.nth_request ~traced:true
                 ~body:(probe_body ~sql:inst.data.sql ~seed ~max_walks))
        in
        let costs = Daemon_stack.statement_costs catalog [ inst.data.sql ] in
        (results, Daemon_stack.metrics ~templates:1 ~port ~log ~costs results))
  in
  (* Budget-stopped answers from a few thousand walks are where a CLT
     interval is least trustworthy, so instead of a statistical check the
     first is compared bit for bit with the same request run in-process;
     the target-stopped session above checked the statistics. *)
  check_replies tally ~what:spec.name ~reason:"walk_budget_exhausted"
    ~fresh:(fun _ ~id:_ ~estimate:_ ~half_width:_ -> ())
    results;
  (match results with
  | first :: _ ->
    check_same_as_inproc tally ~what:(spec.name ^ " request 0") ~catalog ~sql:inst.data.sql
      (Run_config.make ~seed:((seed * 1000) + 500) ~max_time:300.0 ~max_walks ())
      first.reply
  | [] -> ());
  metrics

let run_traced spec ~seed ~workdir tally =
  let inst, out, layer_metrics = layers spec ~seed ~workdir tally in
  let daemon_metrics = probe spec inst ~seed ~workdir out tally in
  remove_tree inst.dir;
  layer_metrics @ daemon_metrics
