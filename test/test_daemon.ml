(* Tests for wj_daemon: the HTTP network front end.

   Every test here drives a real in-process listener over a loopback
   socket — no mocks.  The heart of the suite mirrors test_service's
   determinism property, one layer out: a query streamed over HTTP
   produces bit-for-bit the same per-quantum trajectory and final
   estimate as the same statement served in-process through
   Engine.serve.  Around it: admission control over the wire (429 +
   Retry-After), request deadlines, the estimate cache (hit, bypass,
   epoch staleness), and disconnect-cancels-the-session. *)

module Daemon = Wj_daemon.Daemon
module Http = Wj_daemon.Http
module Json = Wj_util.Json
module Estimate_cache = Wj_daemon.Estimate_cache
module Normalize = Wj_sql.Normalize
module Parser = Wj_sql.Parser
module Engine = Wj_sql.Engine
module Scheduler = Wj_service.Scheduler
module Run_config = Wj_core.Run_config
module Online = Wj_core.Online
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event
module Progress = Wj_obs.Progress
module Metrics = Wj_obs.Metrics
module Snapshot = Wj_obs.Snapshot
module Catalog = Wj_storage.Catalog

let dataset = lazy (Wj_tpch.Generator.generate ~sf:0.005 ())
let catalog () = Wj_tpch.Generator.catalog (Lazy.force dataset)

let bits = Int64.bits_of_float

(* Start a daemon on an ephemeral port, run [f], always stop it. *)
let with_daemon ?quantum ?max_live ?max_queued ?tenant_quota ?trace_capacity
    ?access_log ?slow_query_ms ?default_time catalog f =
  let d =
    Daemon.create ?quantum ?max_live ?max_queued ?tenant_quota ?trace_capacity
      ?access_log ?slow_query_ms ?default_time ~port:0 catalog
  in
  Daemon.start d;
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

(* Fire one /query request, decoding the chunked stream into JSON lines. *)
let query ?(extra = []) ?headers d sql =
  let lines = ref [] in
  let partial = Buffer.create 256 in
  let on_chunk data =
    Buffer.add_string partial data;
    let rec drain () =
      let s = Buffer.contents partial in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
        Buffer.clear partial;
        Buffer.add_string partial (String.sub s (i + 1) (String.length s - i - 1));
        lines := Json.parse (String.sub s 0 i) :: !lines;
        drain ()
    in
    drain ()
  in
  let body = Json.to_string (Json.Obj (("sql", Json.Str sql) :: extra)) in
  let resp =
    Http.fetch ?req_headers:headers ~body ~on_chunk (Daemon.url d ^ "/query")
  in
  let lines =
    if !lines = [] && resp.Http.resp_body <> "" then
      (* Non-chunked response (cache hit / error): one JSON body. *)
      String.split_on_char '\n' (String.trim resp.Http.resp_body)
      |> List.filter (fun l -> l <> "")
      |> List.map Json.parse
    else List.rev !lines
  in
  (resp, lines)

let jstr name j = Option.bind (Json.member name j) Json.to_str
let jint name j = Option.bind (Json.member name j) Json.to_int
let jflt name j = Option.bind (Json.member name j) Json.to_float
let jbool name j = Option.bind (Json.member name j) Json.to_bool

let is_type ty j = jstr "type" j = Some ty
let final_of lines =
  match List.filter (is_type "final") lines with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected exactly one final line, got %d" (List.length fs)

(* ---- determinism: HTTP stream = in-process serve ----------------------- *)

(* One trajectory point per scheduler report, elapsed excluded (wall
   time differs between runs; everything else is PRNG-pure). *)
type point = { p_walks : int; p_succ : int; p_est : int64; p_hw : int64 }

let show_point p =
  Printf.sprintf "{walks=%d succ=%d est=%Lx hw=%Lx}" p.p_walks p.p_succ p.p_est p.p_hw

let test_stream_bit_for_bit () =
  let sql =
    "SELECT ONLINE COUNT(*), SUM(l_quantity) FROM orders, lineitem \
     WHERE o_orderkey = l_orderkey"
  in
  let seed = 424242 and max_walks = 6000 in
  (* In-process reference: same statement, same seed and budgets, same
     scheduler geometry, driven by Engine.serve. *)
  let traj : (int, point list ref) Hashtbl.t = Hashtbl.create 4 in
  let sink =
    Sink.of_fn (function
      | Event.Session_report { session; progress = p; _ } ->
        let r =
          match Hashtbl.find_opt traj session with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add traj session r;
            r
        in
        r :=
          {
            p_walks = p.Progress.walks;
            p_succ = p.Progress.successes;
            p_est = bits p.Progress.estimate;
            p_hw = bits p.Progress.half_width;
          }
          :: !r
      | _ -> ())
  in
  let cfg = Run_config.make ~seed ~max_time:3600.0 ~max_walks () in
  let served =
    Engine.serve ~quantum:256 ~max_live:4 ~sink cfg (catalog ()) [ sql ]
  in
  let expected_finals =
    match served with
    | [ s ] ->
      List.map
        (fun (si : Engine.served_item) ->
          match si.Engine.outcome with
          | Some (Engine.Online_scalar o) ->
            (bits o.Online.final.estimate, bits o.Online.final.half_width)
          | _ -> Alcotest.fail "expected online scalar outcomes")
        s.Engine.served_items
    | _ -> Alcotest.fail "expected one served statement"
  in
  (* The scheduler ids of the reference run are 0 and 1 in submission
     order, which is statement item order. *)
  let expected_traj =
    List.map
      (fun id ->
        match Hashtbl.find_opt traj id with
        | Some r -> List.rev !r
        | None -> Alcotest.failf "no reference trajectory for session %d" id)
      [ 0; 1 ]
  in
  (* Now the same statement over the wire. *)
  with_daemon ~quantum:256 ~max_live:4 (catalog ()) (fun d ->
      let resp, lines =
        query d sql
          ~extra:
            [
              ("seed", Json.Int seed);
              ("max_walks", Json.Int max_walks);
              ("time", Json.Float 3600.0);
            ]
      in
      Alcotest.(check int) "status 200" 200 resp.Http.status;
      let progress = List.filter (is_type "progress") lines in
      let got_traj =
        List.map
          (fun item ->
            List.filter_map
              (fun j ->
                if jint "item" j = Some item then
                  Some
                    {
                      p_walks = Option.get (jint "walks" j);
                      p_succ = Option.get (jint "successes" j);
                      p_est = bits (Option.get (jflt "estimate" j));
                      p_hw = bits (Option.get (jflt "half_width" j));
                    }
                else None)
              progress)
          [ 0; 1 ]
      in
      List.iteri
        (fun i (exp, got) ->
          Alcotest.(check int)
            (Printf.sprintf "item %d: report count" i)
            (List.length exp) (List.length got);
          List.iteri
            (fun k (e, g) ->
              if e <> g then
                Alcotest.failf "item %d report %d: expected %s, got %s" i k
                  (show_point e) (show_point g))
            (List.combine exp got))
        (List.combine expected_traj got_traj);
      let final = final_of lines in
      Alcotest.(check string)
        "status done" "done"
        (Option.get (jstr "status" final));
      let items = Option.get (Option.bind (Json.member "items" final) Json.to_list) in
      List.iteri
        (fun i ((e_est, e_hw), item) ->
          Alcotest.(check bool)
            (Printf.sprintf "item %d: final estimate bits" i)
            true
            (Int64.equal e_est (bits (Option.get (jflt "estimate" item))));
          Alcotest.(check bool)
            (Printf.sprintf "item %d: final half-width bits" i)
            true
            (Int64.equal e_hw (bits (Option.get (jflt "half_width" item)))))
        (List.combine expected_finals items))

(* A GROUP BY statement over the wire: the daemon submits it like any
   other and the query makes it a group-by session, whose final item
   carries per-group estimate/CI bits identical to Engine.serve's. *)
let test_group_by_bit_for_bit () =
  let sql =
    "SELECT ONLINE COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey \
     GROUP BY c_mktsegment"
  in
  let seed = 424242 and max_walks = 3000 in
  let cfg = Run_config.make ~seed ~max_time:3600.0 ~max_walks () in
  let expected =
    match Engine.serve ~quantum:256 ~max_live:4 cfg (catalog ()) [ sql ] with
    | [ { Engine.served_items = [ { Engine.outcome = Some (Engine.Online_groups g); _ } ]; _ } ]
      ->
      List.map
        (fun (key, (r : Online.report)) ->
          (Wj_storage.Value.to_display key, bits r.estimate, bits r.half_width))
        g.Online.groups
    | _ -> Alcotest.fail "expected one online group-by outcome"
  in
  with_daemon ~quantum:256 ~max_live:4 (catalog ()) (fun d ->
      let resp, lines =
        query d sql
          ~extra:
            [
              ("seed", Json.Int seed);
              ("max_walks", Json.Int max_walks);
              ("time", Json.Float 3600.0);
            ]
      in
      Alcotest.(check int) "status 200" 200 resp.Http.status;
      let final = final_of lines in
      Alcotest.(check (option string)) "status done" (Some "done") (jstr "status" final);
      let item =
        match Option.bind (Json.member "items" final) Json.to_list with
        | Some [ item ] -> item
        | _ -> Alcotest.fail "expected one final item"
      in
      Alcotest.(check (option string)) "kind" (Some "group_by") (jstr "kind" item);
      let got =
        List.map
          (fun g ->
            ( Option.get (jstr "key" g),
              bits (Option.get (jflt "estimate" g)),
              bits (Option.get (jflt "half_width" g)) ))
          (Option.get (Option.bind (Json.member "groups" item) Json.to_list))
      in
      Alcotest.(check int) "group count" (List.length expected) (List.length got);
      List.iter2
        (fun (k, e_est, e_hw) (k', g_est, g_hw) ->
          Alcotest.(check string) "group key" k k';
          Alcotest.(check bool) (k ^ ": estimate bits") true (Int64.equal e_est g_est);
          Alcotest.(check bool) (k ^ ": half-width bits") true (Int64.equal e_hw g_hw))
        expected got)

(* ---- admission control over the wire ----------------------------------- *)

let slow_extra =
  (* A walk budget far beyond what a test slice completes: the session
     stays running until cancelled or its deadline expires. *)
  [ ("max_walks", Json.Int 500_000_000); ("time", Json.Float 3600.0) ]

let test_quota_rejection () =
  with_daemon ~max_live:1 ~max_queued:0 (catalog ()) (fun d ->
      let sql = "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey" in
      (* Occupy the only slot from a helper thread; deadline bounds the
         squatter so the daemon drains even if assertions fail. *)
      let first_done = ref None in
      let t =
        Thread.create
          (fun () ->
            first_done :=
              Some (query d sql ~extra:(("deadline", Json.Float 2.0) :: slow_extra)))
          ()
      in
      (* Wait until the squatter is actually in flight. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_busy () =
        let resp = Http.fetch (Daemon.url d ^ "/stats") in
        let j = Json.parse (String.trim resp.Http.resp_body) in
        if jint "in_flight" j = Some 0 then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "first query never became live"
          else (Thread.yield (); wait_busy ())
      in
      wait_busy ();
      let resp, lines = query d sql ~extra:[ ("seed", Json.Int 3) ] in
      Alcotest.(check int) "queue-full second query" 429 resp.Http.status;
      Alcotest.(check bool)
        "has Retry-After" true
        (List.mem_assoc "retry-after" resp.Http.resp_headers);
      (match lines with
      | [ err ] ->
        Alcotest.(check (option string)) "error code" (Some "rejected") (jstr "code" err)
      | _ -> Alcotest.fail "expected one error body");
      Thread.join t;
      (* ... and the squatter's deadline mapped onto the scheduler. *)
      match !first_done with
      | Some (resp1, lines1) ->
        Alcotest.(check int) "first query still streamed" 200 resp1.Http.status;
        Alcotest.(check (option string))
          "deadline crossed the wire" (Some "deadline_exceeded")
          (jstr "status" (final_of lines1))
      | None -> Alcotest.fail "first query never completed")

let test_tenant_quota () =
  with_daemon ~max_live:4 ~tenant_quota:1 (catalog ()) (fun d ->
      let sql = "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey" in
      let first_done = ref None in
      let t =
        Thread.create
          (fun () ->
            first_done :=
              Some
                (query d sql
                   ~extra:
                     (("tenant", Json.Str "alice")
                     :: ("deadline", Json.Float 2.0)
                     :: slow_extra)))
          ()
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_busy () =
        let resp = Http.fetch (Daemon.url d ^ "/stats") in
        let j = Json.parse (String.trim resp.Http.resp_body) in
        if jint "in_flight" j = Some 0 then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "alice's query never became live"
          else (Thread.yield (); wait_busy ())
      in
      wait_busy ();
      (* Same tenant: quota hit.  Different tenant: admitted. *)
      let resp_alice, _ =
        query d sql ~extra:[ ("tenant", Json.Str "alice"); ("seed", Json.Int 3) ]
      in
      Alcotest.(check int) "alice over quota" 429 resp_alice.Http.status;
      let resp_bob, lines_bob =
        query d sql
          ~extra:[ ("tenant", Json.Str "bob"); ("max_walks", Json.Int 2000) ]
      in
      Alcotest.(check int) "bob admitted" 200 resp_bob.Http.status;
      Alcotest.(check (option string))
        "bob ran to completion" (Some "done")
        (jstr "status" (final_of lines_bob));
      Thread.join t;
      ignore !first_done)

(* ---- estimate cache ----------------------------------------------------- *)

let test_cache_hit_and_staleness () =
  (* A private catalog: this test bumps its epoch. *)
  let cat = Wj_tpch.Generator.catalog (Wj_tpch.Generator.generate ~sf:0.005 ()) in
  with_daemon cat (fun d ->
      let extra = [ ("seed", Json.Int 7); ("max_walks", Json.Int 2000) ] in
      let sql =
        "SELECT ONLINE SUM(l_quantity) FROM orders o, lineitem l \
         WHERE o.o_orderkey = l.l_orderkey"
      in
      (* Same statement modulo aliasing and conjunct spelling. *)
      let sql' =
        "select online sum(li.l_quantity) from orders ord, lineitem li \
         where li.l_orderkey = ord.o_orderkey"
      in
      let _, lines1 = query d sql ~extra in
      let f1 = final_of lines1 in
      Alcotest.(check (option bool)) "first run computes" (Some false) (jbool "cached" f1);
      let _, lines2 = query d sql' ~extra in
      let f2 = final_of lines2 in
      Alcotest.(check (option bool)) "normalized repeat hits" (Some true) (jbool "cached" f2);
      Alcotest.(check bool)
        "pinned estimate is bit-for-bit the recorded one" true
        (Json.to_string (Option.get (Json.member "items" f1))
        = Json.to_string (Option.get (Json.member "items" f2)));
      Alcotest.(check int)
        "cache hit streams no progress" 0
        (List.length (List.filter (is_type "progress") lines2));
      (* A different seed is a different experiment. *)
      let _, lines3 = query d sql ~extra:[ ("seed", Json.Int 8); ("max_walks", Json.Int 2000) ] in
      Alcotest.(check (option bool))
        "seed override misses" (Some false)
        (jbool "cached" (final_of lines3));
      (* cache:false bypasses even a hot entry. *)
      let _, lines4 = query d sql ~extra:(("cache", Json.Bool false) :: extra) in
      Alcotest.(check (option bool))
        "cache:false bypasses" (Some false)
        (jbool "cached" (final_of lines4));
      (* Data changed: the entry is stale, the query recomputes. *)
      Catalog.bump_epoch cat;
      let _, lines5 = query d sql ~extra in
      Alcotest.(check (option bool))
        "bumped epoch invalidates" (Some false)
        (jbool "cached" (final_of lines5));
      let stats = Http.fetch (Daemon.url d ^ "/stats") in
      let snap =
        match Json.member "metrics" (Json.parse (String.trim stats.Http.resp_body)) with
        | Some m -> Snapshot.of_json (Json.to_string m)
        | None -> Alcotest.fail "no metrics in /stats"
      in
      Alcotest.(check int) "one hit counted" 1 (Snapshot.counter_value snap "cache.hits");
      Alcotest.(check int) "one stale eviction counted" 1 (Snapshot.counter_value snap "cache.stale"))

let test_cache_lru_unit () =
  let m = Metrics.create () in
  let c = Estimate_cache.create ~capacity:2 m in
  let e epoch = { Estimate_cache.results = Json.Null; epoch } in
  let store ?cost key = Estimate_cache.store c ~key ?cost (e 0) in
  Alcotest.(check bool) "a stored" true (store "a");
  Alcotest.(check bool) "b stored" true (store "b");
  ignore (Estimate_cache.find c ~key:"a" ~epoch:0);
  (* "b" is now least recently used; inserting "c" evicts it. *)
  Alcotest.(check bool) "c stored" true (store "c");
  Alcotest.(check int) "capacity held" 2 (Estimate_cache.length c);
  Alcotest.(check bool) "a survived" true (Estimate_cache.find c ~key:"a" ~epoch:0 <> None);
  Alcotest.(check bool) "b evicted" true (Estimate_cache.find c ~key:"b" ~epoch:0 = None);
  (* Stale entries are evicted and counted separately from misses. *)
  Alcotest.(check bool) "c stale at epoch 1" true (Estimate_cache.find c ~key:"c" ~epoch:1 = None);
  (* Admission: exact answers below 10,000 rows visited are skipped. *)
  Alcotest.(check bool) "below floor skipped" false (store ~cost:9_999 "d");
  Alcotest.(check bool) "at floor stored" true (store ~cost:10_000 "e");
  Alcotest.(check bool) "d absent" true (Estimate_cache.find c ~key:"d" ~epoch:0 = None);
  let snap = Snapshot.of_metrics m in
  Alcotest.(check int) "evictions" 1 (Snapshot.counter_value snap "cache.evictions");
  Alcotest.(check int) "stale" 1 (Snapshot.counter_value snap "cache.stale");
  Alcotest.(check int) "skipped" 1 (Snapshot.counter_value snap "cache.skipped_cheap")

(* ---- disconnect cancels ------------------------------------------------- *)

let test_disconnect_cancels () =
  with_daemon ~max_live:2 (catalog ()) (fun d ->
      let sql = "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey" in
      (* Raw socket: send the request, read a few bytes of stream, then
         vanish without closing the exchange properly. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port d));
      let body =
        Json.to_string
          (Json.Obj (("sql", Json.Str sql) :: slow_extra))
      in
      let req =
        Printf.sprintf
          "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n\r\n%s"
          (String.length body) body
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Bytes.create 1024 in
      let n = Unix.read fd buf 0 1024 in
      Alcotest.(check bool) "stream started" true (n > 0);
      Unix.close fd;
      (* The daemon notices at the next chunk write and cancels; the
         session must leave the scheduler promptly. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait_drained () =
        let resp = Http.fetch (Daemon.url d ^ "/stats") in
        let j = Json.parse (String.trim resp.Http.resp_body) in
        if jint "in_flight" j <> Some 0 then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "session still in flight 10s after disconnect"
          else (Thread.yield (); wait_drained ())
      in
      wait_drained ())

(* ---- errors over the wire ----------------------------------------------- *)

let test_wire_errors () =
  with_daemon (catalog ()) (fun d ->
      let status_of ?extra sql = (fst (query ?extra d sql)).Http.status in
      Alcotest.(check int) "parse error is 400" 400 (status_of "SELECT FROM");
      Alcotest.(check int)
        "bind error is 400" 400
        (status_of "SELECT ONLINE COUNT(*) FROM nosuch");
      let resp = Http.fetch ~body:"{not json" (Daemon.url d ^ "/query") in
      Alcotest.(check int) "malformed body is 400" 400 resp.Http.status;
      let resp = Http.fetch ~body:"{}" (Daemon.url d ^ "/query") in
      Alcotest.(check int) "missing sql is 400" 400 resp.Http.status;
      let resp = Http.fetch (Daemon.url d ^ "/nosuch") in
      Alcotest.(check int) "unknown path is 404" 404 resp.Http.status;
      let resp = Http.fetch ~meth:"PUT" ~body:"{}" (Daemon.url d ^ "/query") in
      Alcotest.(check int) "bad method is 405" 405 resp.Http.status;
      (* Exact statements answer synchronously, unchunked. *)
      let resp, lines =
        query d "SELECT COUNT(*) FROM region"
      in
      Alcotest.(check int) "exact query is 200" 200 resp.Http.status;
      let final = final_of lines in
      let items = Option.get (Option.bind (Json.member "items" final) Json.to_list) in
      (match items with
      | [ item ] ->
        Alcotest.(check (option string)) "exact kind" (Some "exact") (jstr "kind" item);
        Alcotest.(check (option (float 0.0))) "five regions" (Some 5.0) (jflt "value" item)
      | _ -> Alcotest.fail "expected one exact item"))

(* ---- observability over the wire ---------------------------------------- *)

(* Minimal exposition reader: [# TYPE] declarations and samples, with the
   sample name split off its label set.  Enough to validate well-formedness
   and to sum a family across its labelled series. *)
let parse_exposition body =
  let declared = ref [] and samples = ref [] in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then
           match String.split_on_char ' ' line with
           | [ _; _; name; kind ] -> declared := (name, kind) :: !declared
           | _ -> Alcotest.failf "malformed TYPE line: %s" line
         else if line.[0] = '#' then ()
         else
           let name_end =
             match (String.index_opt line '{', String.index_opt line ' ') with
             | Some b, Some sp -> min b sp
             | Some b, None -> b
             | None, Some sp -> sp
             | None, None -> Alcotest.failf "malformed sample: %s" line
           in
           let name = String.sub line 0 name_end in
           let value =
             match String.rindex_opt line ' ' with
             | Some sp ->
               float_of_string
                 (String.sub line (sp + 1) (String.length line - sp - 1))
             | None -> Alcotest.failf "malformed sample: %s" line
           in
           samples := (name, value) :: !samples);
  (List.rev !declared, List.rev !samples)

let sum_family samples name =
  List.fold_left
    (fun acc (n, v) -> if n = name then acc +. v else acc)
    0.0 samples

let test_metrics_endpoint () =
  with_daemon (catalog ()) (fun d ->
      let sql =
        "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey"
      in
      let resp, _ =
        query d sql ~extra:[ ("seed", Json.Int 5); ("max_walks", Json.Int 3000) ]
      in
      Alcotest.(check int) "query ok" 200 resp.Http.status;
      let m = Http.fetch (Daemon.url d ^ "/metrics") in
      Alcotest.(check int) "/metrics is 200" 200 m.Http.status;
      Alcotest.(check (option string))
        "exposition content type"
        (Some "text/plain; version=0.0.4")
        (List.assoc_opt "content-type" m.Http.resp_headers);
      let declared, samples = parse_exposition m.Http.resp_body in
      (* Well-formed: every sample belongs to a declared family (histogram
         series carry the conventional suffixes), names stay in the
         Prometheus charset, no family is declared twice. *)
      let is_name s =
        s <> ""
        && String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z')
               || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9')
               || c = '_' || c = ':')
             s
      in
      List.iter
        (fun (name, kind) ->
          Alcotest.(check bool) ("family name " ^ name) true (is_name name);
          Alcotest.(check bool)
            ("known kind " ^ kind)
            true
            (List.mem kind [ "counter"; "gauge"; "histogram" ]))
        declared;
      Alcotest.(check int) "no duplicate families"
        (List.length declared)
        (List.length (List.sort_uniq compare (List.map fst declared)));
      let covers sample =
        List.exists
          (fun (fam, kind) ->
            sample = fam
            || kind = "histogram"
               && List.exists
                    (fun suf -> sample = fam ^ suf)
                    [ "_bucket"; "_sum"; "_count" ])
          declared
      in
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) ("declared: " ^ name) true (covers name))
        samples;
      (* Golden families the dashboards scrape. *)
      List.iter
        (fun fam ->
          Alcotest.(check bool) ("has " ^ fam) true
            (List.mem_assoc fam declared))
        [
          "wj_http_requests"; "wj_walker_walks"; "wj_gc_heap_words";
          "wj_sched_live"; "wj_http_queue_wait_ms";
        ];
      (* The walker reconciliation identity, observed from outside through
         the exposition alone: every walk either succeeded or failed at
         some depth, summed across all per-session series. *)
      let walks = sum_family samples "wj_walker_walks" in
      let successes = sum_family samples "wj_walker_successes" in
      let failures = sum_family samples "wj_walker_failure_depth_count" in
      Alcotest.(check bool) "some walks happened" true (walks > 0.0);
      Alcotest.(check (float 1e-9))
        "walks = successes + failures over the wire" walks
        (successes +. failures))

let test_stats_shape () =
  with_daemon (catalog ()) (fun d ->
      let resp = Http.fetch (Daemon.url d ^ "/stats") in
      Alcotest.(check int) "/stats is 200" 200 resp.Http.status;
      let j = Json.parse (String.trim resp.Http.resp_body) in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (field ^ " is an int") true
            (jint field j <> None))
        [ "in_flight"; "live"; "queued"; "cache_entries"; "traces"; "epoch" ];
      match Json.member "metrics" j with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "metrics member missing or not an object")

let test_trace_roundtrip () =
  with_daemon (catalog ()) (fun d ->
      let sql =
        "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey"
      in
      let id = "t-roundtrip.1" in
      let resp, lines =
        query d sql
          ~headers:[ (Http.trace_header, id) ]
          ~extra:[ ("seed", Json.Int 9); ("max_walks", Json.Int 2000) ]
      in
      Alcotest.(check int) "traced query ok" 200 resp.Http.status;
      Alcotest.(check (option string))
        "trace id echoed" (Some id)
        (List.assoc_opt Http.trace_header resp.Http.resp_headers);
      Alcotest.(check (option string))
        "done" (Some "done")
        (jstr "status" (final_of lines));
      let t = Http.fetch (Daemon.url d ^ "/trace/" ^ id) in
      Alcotest.(check int) "/trace/<id> is 200" 200 t.Http.status;
      (* The retained document reads back through the exporter's own
         verification path, and the request's scheduler grants are in it,
         balanced. *)
      let events = Wj_obs.Trace.events_of_json t.Http.resp_body in
      Alcotest.(check bool) "trace has events" true (events <> []);
      let phase_count want_ph =
        List.length
          (List.filter
             (fun (name, _, ph, _) ->
               ph = want_ph
               && String.length name >= 8
               && String.sub name 0 8 = "quantum:")
             events)
      in
      Alcotest.(check bool) "has quantum spans" true (phase_count "B" > 0);
      Alcotest.(check int) "balanced spans" (phase_count "B") (phase_count "E");
      (* Unknown ids 404; an untraced request is echoed a generated id but
         retains nothing. *)
      let miss = Http.fetch (Daemon.url d ^ "/trace/nosuch") in
      Alcotest.(check int) "unknown trace is 404" 404 miss.Http.status;
      let resp2, _ =
        query d sql ~extra:[ ("seed", Json.Int 10); ("max_walks", Json.Int 500) ]
      in
      match List.assoc_opt Http.trace_header resp2.Http.resp_headers with
      | None -> Alcotest.fail "untraced query still gets an id"
      | Some gen ->
        let t2 = Http.fetch (Daemon.url d ^ "/trace/" ^ gen) in
        Alcotest.(check int) "untraced query retains no trace" 404
          t2.Http.status)

(* The whole observability surface at once — tracing on, access log on,
   /metrics scraped concurrently — must not move a single bit of the
   estimate stream. *)
let test_obs_bit_for_bit () =
  let sql =
    "SELECT ONLINE COUNT(*), SUM(l_quantity) FROM orders, lineitem \
     WHERE o_orderkey = l_orderkey"
  in
  let extra = [ ("seed", Json.Int 31337); ("max_walks", Json.Int 4000) ] in
  let points lines =
    List.filter (is_type "progress") lines
    |> List.map (fun j ->
           {
             p_walks = Option.get (jint "walks" j);
             p_succ = Option.get (jint "successes" j);
             p_est = bits (Option.get (jflt "estimate" j));
             p_hw = bits (Option.get (jflt "half_width" j));
           })
  in
  (* The final items minus the one field that is wall time, not PRNG. *)
  let items_sans_elapsed final =
    Option.get (Option.bind (Json.member "items" final) Json.to_list)
    |> List.map (fun item ->
           match item with
           | Json.Obj fields ->
             Json.to_string
               (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed") fields))
           | _ -> Alcotest.fail "item is not an object")
    |> String.concat ";"
  in
  let plain =
    with_daemon ~quantum:256 ~max_live:4 (catalog ()) (fun d ->
        let _, lines = query d sql ~extra in
        (points lines, items_sans_elapsed (final_of lines)))
  in
  let log_file = Filename.temp_file "wj_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log_file)
    (fun () ->
      let observed =
        with_daemon ~quantum:256 ~max_live:4 ~access_log:log_file
          ~slow_query_ms:0.001 (catalog ()) (fun d ->
            let stop = Atomic.make false in
            let scraper =
              Thread.create
                (fun () ->
                  while not (Atomic.get stop) do
                    ignore (Http.fetch (Daemon.url d ^ "/metrics"));
                    Thread.yield ()
                  done)
                ()
            in
            let result =
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set stop true;
                  Thread.join scraper)
                (fun () ->
                  let _, lines =
                    query d sql ~headers:[ (Http.trace_header, "obs-bfb") ] ~extra
                  in
                  (points lines, items_sans_elapsed (final_of lines)))
            in
            result)
      in
      Alcotest.(check int)
        "same report count" (List.length (fst plain))
        (List.length (fst observed));
      List.iteri
        (fun k (e, g) ->
          if e <> g then
            Alcotest.failf "report %d: expected %s, got %s" k (show_point e)
              (show_point g))
        (List.combine (fst plain) (fst observed));
      Alcotest.(check string) "identical final items" (snd plain) (snd observed);
      (* And the access log captured the request, structured. *)
      let ic = open_in log_file in
      let line = input_line ic in
      close_in ic;
      let j = Json.parse line in
      Alcotest.(check (option string)) "trace id logged" (Some "obs-bfb") (jstr "trace" j);
      Alcotest.(check (option string)) "outcome" (Some "done") (jstr "outcome" j);
      Alcotest.(check bool) "walks logged" true (jint "walks" j <> None);
      Alcotest.(check bool) "stmt hash logged" true
        (match jstr "stmt" j with Some h -> String.length h = 32 | None -> false);
      (* slow_query_ms ≈ 0 makes everything slow: the convergence fit rides
         along, with a negative exponent (the CI shrinks). *)
      Alcotest.(check (option bool)) "slow" (Some true) (jbool "slow" j);
      match Json.member "fit" j with
      | Some fit ->
        Alcotest.(check bool) "fit exponent < 0" true
          (match jflt "exponent" fit with Some e -> e < 0.0 | None -> false)
      | None -> Alcotest.fail "no convergence fit in slow-query line")

(* [stop] closes the access log while handler threads it does not join
   may still be writing to it.  Here one request is mid-stream and a
   second has sent only part of its body when the daemon stops; the second
   then completes, fails to parse and logs its failure after the log is
   closed.  That line must be dropped: no handler thread may die with
   [Sys_error], and every line in the file must be whole. *)
let test_stop_closes_log () =
  let log_file = Filename.temp_file "wj_access" ".jsonl" in
  let died = ref [] in
  let died_mu = Mutex.create () in
  Thread.set_uncaught_exception_handler (fun e ->
      Mutex.protect died_mu (fun () -> died := Printexc.to_string e :: !died));
  let connect d =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port d));
    fd
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let read_all fd =
    let buf = Bytes.create 4096 and out = Buffer.create 256 in
    let rec go () =
      match Unix.read fd buf 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    in
    go ();
    Buffer.contents out
  in
  let post_head body =
    Printf.sprintf "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n\r\n"
      (String.length body)
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.set_uncaught_exception_handler Thread.default_uncaught_exception_handler;
      Sys.remove log_file)
    (fun () ->
      let d = Daemon.create ~quantum:256 ~access_log:log_file ~port:0 (catalog ()) in
      Daemon.start d;
      (* A logged request that completes before the stop. *)
      let resp, _ = query d "SELECT FROM" in
      Alcotest.(check int) "parse error" 400 resp.Http.status;
      (* Mid-stream: a long COUNT whose first chunk has arrived. *)
      let streaming = connect d in
      let body =
        Json.to_string
          (Json.Obj
             (("sql", Json.Str "SELECT ONLINE COUNT(*) FROM orders, lineitem \
                                WHERE o_orderkey = l_orderkey")
             :: slow_extra))
      in
      send streaming (post_head body ^ body);
      let buf = Bytes.create 1024 in
      Alcotest.(check bool) "stream started" true (Unix.read streaming buf 0 1024 > 0);
      (* Half a request: its handler waits for the rest of the body. *)
      let pending = connect d in
      let bad = Json.to_string (Json.Obj [ ("sql", Json.Str "SELECT FROM nowhere") ]) in
      let half = String.length bad / 2 in
      send pending (post_head bad ^ String.sub bad 0 half);
      (* Connections are accepted in order: once this answers, the
         half-sent request has its handler thread. *)
      ignore (Http.fetch (Daemon.url d ^ "/health"));
      Daemon.stop d;
      send pending (String.sub bad half (String.length bad - half));
      let answer = read_all pending in
      Unix.close pending;
      Unix.close streaming;
      Alcotest.(check bool) "late request answered" true
        (String.length answer > 0
        && String.sub answer 0 (min 12 (String.length answer)) = "HTTP/1.1 400");
      Alcotest.(check (list string)) "no handler thread died" []
        (Mutex.protect died_mu (fun () -> !died));
      let ic = open_in log_file in
      let rec lines acc =
        match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
      in
      let lines = lines [] in
      close_in ic;
      Alcotest.(check bool) "the early request is logged" true (lines <> []);
      List.iter
        (fun l ->
          match Json.parse l with
          | j -> Alcotest.(check bool) "line has an outcome" true (jstr "outcome" j <> None)
          | exception Json.Parse_error msg -> Alcotest.failf "torn log line %S: %s" l msg)
        lines)

(* [stop] ends what is in flight.  A client streaming a query with 30 s
   left gets a cancelled final line and then EOF, within a second of the
   stop, instead of waiting on a scheduler that no longer ticks. *)
let test_stop_cancels_streams () =
  let d = Daemon.create ~quantum:256 ~port:0 (catalog ()) in
  Daemon.start d;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port d));
      (* A bound on every read, so a stream that never ends fails the test. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0;
      let body =
        Json.to_string
          (Json.Obj
             [
               ( "sql",
                 Json.Str
                   "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey \
                    = l_orderkey WITHINTIME 30" );
             ])
      in
      let req =
        Printf.sprintf "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n\r\n%s"
          (String.length body) body
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let got = Buffer.create 4096 and buf = Bytes.create 4096 in
      let contains sub =
        let s = Buffer.contents got in
        let n = String.length sub in
        let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      (* [true] at EOF, [false] when a read timed out. *)
      let rec read_until stop =
        if stop () then true
        else
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> true
          | n ->
            Buffer.add_subbytes got buf 0 n;
            read_until stop
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
      in
      ignore (read_until (fun () -> contains {|"type":"progress"|}));
      Alcotest.(check bool) "first chunk arrived" true (contains {|"type":"progress"|});
      let t0 = Unix.gettimeofday () in
      Daemon.stop d;
      let eof = read_until (fun () -> false) in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "final line says cancelled" true
        (contains {|"type":"final","status":"cancelled"|});
      Alcotest.(check bool) "stream reached EOF" true eof;
      Alcotest.(check bool)
        (Printf.sprintf "final line and EOF within 1 s of stop (%.3f s)" elapsed)
        true (elapsed < 1.0))

(* A query whose body finishes arriving after [stop] began is refused:
   nothing ticks the scheduler any more, so a session submitted then
   would never end.  The client gets a 503 and EOF, not a stream that
   hangs. *)
let test_stop_refuses_late_query () =
  let d = Daemon.create ~quantum:256 ~port:0 (catalog ()) in
  Daemon.start d;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port d));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0;
      let body =
        Json.to_string
          (Json.Obj
             [
               ( "sql",
                 Json.Str
                   "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey \
                    = l_orderkey WITHINTIME 1" );
             ])
      in
      let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
      let half = String.length body / 2 in
      send
        (Printf.sprintf "POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: %d\r\n\r\n%s"
           (String.length body) (String.sub body 0 half));
      (* Connections are accepted in order: once this answers, the
         half-sent request has its handler thread. *)
      ignore (Http.fetch (Daemon.url d ^ "/health"));
      Daemon.stop d;
      let t0 = Unix.gettimeofday () in
      send (String.sub body half (String.length body - half));
      let got = Buffer.create 512 and buf = Bytes.create 4096 in
      (* [true] at EOF, [false] when a read timed out. *)
      let rec read_all () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> true
        | n ->
          Buffer.add_subbytes got buf 0 n;
          read_all ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
      in
      let eof = read_all () in
      let elapsed = Unix.gettimeofday () -. t0 in
      let answer = Buffer.contents got in
      Alcotest.(check string) "status line" "HTTP/1.1 503"
        (String.sub answer 0 (min 12 (String.length answer)));
      let code =
        match String.rindex_opt (String.trim answer) '\n' with
        | Some i -> jstr "code" (Json.parse (String.sub answer (i + 1) (String.length answer - i - 1)))
        | None -> None
      in
      Alcotest.(check (option string)) "error code" (Some "stopping") code;
      Alcotest.(check bool) "response reached EOF" true eof;
      Alcotest.(check bool)
        (Printf.sprintf "answer and EOF within 1 s of the rest of the body (%.3f s)" elapsed)
        true (elapsed < 1.0))

(* Exact answers below the admission floor (10,000 rows visited) are not
   worth caching: the cache skips them and counts the skip.  An exact join
   above the floor (orders ⋈ lineitem visits ~37,500 rows at SF 0.005) is
   admitted and its repeat hits.  Admission reads the executor's row
   count, not the clock, so the outcome does not depend on load. *)
let test_cache_skip_cheap () =
  let sql = "SELECT COUNT(*) FROM region" in
  with_daemon (catalog ()) (fun d ->
      let _, l1 = query d sql in
      Alcotest.(check (option bool)) "first computes" (Some false)
        (jbool "cached" (final_of l1));
      let _, l2 = query d sql in
      Alcotest.(check (option bool)) "repeat still computes" (Some false)
        (jbool "cached" (final_of l2));
      let m = Http.fetch (Daemon.url d ^ "/metrics") in
      let _, samples = parse_exposition m.Http.resp_body in
      Alcotest.(check bool) "skips counted" true
        (sum_family samples "wj_cache_skipped_cheap" >= 2.0);
      let join = "SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey" in
      let _, l1 = query d join in
      Alcotest.(check (option bool)) "above floor: first computes" (Some false)
        (jbool "cached" (final_of l1));
      let _, l2 = query d join in
      Alcotest.(check (option bool)) "above floor: repeat hits" (Some true)
        (jbool "cached" (final_of l2)))

(* ---- statement normalization -------------------------------------------- *)

let norm ?catalog sql = Normalize.statement ?catalog (Parser.parse sql)

let test_normalization () =
  let same ?catalog a b =
    Alcotest.(check string) ("≡ " ^ b) (norm ?catalog a) (norm ?catalog b)
  in
  let diff a b = Alcotest.(check bool) ("≢ " ^ b) true (norm a <> norm b) in
  (* Aliases are resolved away; with a catalog, bare columns qualify. *)
  same ~catalog:(catalog ())
    "SELECT ONLINE COUNT(*) FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey"
    "select online count(*) from orders, lineitem where o_orderkey = l_orderkey";
  (* Commutative AND reorders; join sides flip. *)
  same "SELECT SUM(a) FROM t1, t2 WHERE t1.x = t2.y AND a > 3"
       "SELECT SUM(a) FROM t1, t2 WHERE a > 3 AND t2.y = t1.x";
  (* WITHINTIME and REPORTINTERVAL do not change the estimate: excluded. *)
  same "SELECT ONLINE COUNT(*) FROM t1, t2 WHERE t1.x = t2.y WITHINTIME 5"
       "SELECT ONLINE COUNT(*) FROM t1, t2 WHERE t1.x = t2.y WITHINTIME 60 REPORTINTERVAL 1";
  (* CONFIDENCE changes the half-width: included. *)
  diff "SELECT ONLINE COUNT(*) FROM t1, t2 WHERE t1.x = t2.y CONFIDENCE 95"
       "SELECT ONLINE COUNT(*) FROM t1, t2 WHERE t1.x = t2.y CONFIDENCE 99";
  (* Different predicates stay different. *)
  diff "SELECT SUM(a) FROM t1, t2 WHERE t1.x = t2.y AND a > 3"
       "SELECT SUM(a) FROM t1, t2 WHERE t1.x = t2.y AND a > 4";
  (* FROM order is preserved (it is the walk-order search space). *)
  diff "SELECT COUNT(*) FROM t1, t2 WHERE t1.x = t2.y"
       "SELECT COUNT(*) FROM t2, t1 WHERE t1.x = t2.y"

let () =
  Alcotest.run "wj_daemon"
    [
      ( "determinism",
        [
          Alcotest.test_case "HTTP stream = in-process serve, bit for bit" `Quick
            test_stream_bit_for_bit;
          Alcotest.test_case "GROUP BY over HTTP = in-process serve, bit for bit"
            `Quick test_group_by_bit_for_bit;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-full answers 429 + Retry-After; deadline crosses the wire"
            `Quick test_quota_rejection;
          Alcotest.test_case "tenant quota isolates tenants" `Quick test_tenant_quota;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, seed miss, bypass, epoch staleness" `Quick
            test_cache_hit_and_staleness;
          Alcotest.test_case "LRU eviction and counters" `Quick test_cache_lru_unit;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "client disconnect cancels the session" `Quick
            test_disconnect_cancels;
          Alcotest.test_case "errors map to HTTP statuses" `Quick test_wire_errors;
          Alcotest.test_case "stop ends in-flight streams as cancelled" `Quick
            test_stop_cancels_streams;
          Alcotest.test_case "a query that arrives after stop gets 503" `Quick
            test_stop_refuses_late_query;
        ] );
      ( "observability",
        [
          Alcotest.test_case "/metrics exposition + reconciliation" `Quick
            test_metrics_endpoint;
          Alcotest.test_case "/stats shape" `Quick test_stats_shape;
          Alcotest.test_case "X-WJ-Trace round-trips through /trace/<id>" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "tracing + access log + scraping move no bits"
            `Quick test_obs_bit_for_bit;
          Alcotest.test_case "cache admission skips cheap exact answers" `Quick
            test_cache_skip_cheap;
          Alcotest.test_case "stop mid-stream drops late access-log lines" `Quick
            test_stop_closes_log;
        ] );
      ( "normalization",
        [ Alcotest.test_case "statement normal form" `Quick test_normalization ] );
    ]
