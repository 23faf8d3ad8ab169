(* The daemon workload: `wjcli wjd` in its own process on loopback,
   driven by one closed-loop client rotating through three statement shapes,
   with every fifth request a repeat that the estimate cache should
   answer. *)

module M = Measure
module C = Wjd_client
module Json = Wj_daemon.Json
module Generator = Wj_tpch.Generator

let templates =
  [|
    ("t_sum2", "SELECT ONLINE SUM(l_quantity) FROM orders, lineitem WHERE o_orderkey = l_orderkey");
    ("t_q3", Inproc.q3_sql);
    ( "t_count2",
      "SELECT ONLINE COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey AND \
       o_orderdate < DATE '1994-01-01'" );
  |]

type sizes = {
  sf : float;
  target_pct : float;
  requests : int option;  (** a fixed request count instead of a time window *)
  ledger_walks : int;
}

let sizes ~smoke =
  if smoke then { sf = 0.005; target_pct = 15.0; requests = Some 20; ledger_walks = 4_000 }
  else { sf = 0.05; target_pct = 10.0; requests = None; ledger_walks = 200_000 }

(* One closed-loop client: with the daemon, the two processes fill two
   cores, and a second client made each request's latency depend on what
   the other client's request happened to be. *)
let clients = 1

let body ~sql ~seed ~target_pct =
  Json.to_string
    (Json.Obj
       [
         ("sql", Json.Str sql);
         ("seed", Json.Int seed);
         ("target_pct", Json.Float target_pct);
         ("time", Json.Float 300.0);
       ])

(* Fresh requests rotate through the templates, each with its own seed. *)
let template_body sizes ~seed j =
  let template = j mod Array.length templates in
  ( template,
    body ~sql:(snd templates.(template)) ~seed:((seed * 100_000) + j) ~target_pct:sizes.target_pct )

(* Spawn → /health → one warm-up request per template: the daemon's
   set-up as a client sees it. *)
let start ~wjcli sizes ~seed ~access_log =
  let t0 = M.now () in
  let p =
    C.spawn ~wjcli
      ([ "wjd"; "--sf"; Printf.sprintf "%g" sizes.sf; "--seed"; string_of_int Inproc.data_seed;
         "--port"; "0" ]
      @ match access_log with Some f -> [ "--access-log"; f ] | None -> [])
  in
  try
    let rec healthy k =
      match C.get ~port:p.port "/health" with
      | { C.status = 200; _ } -> ()
      | _ when k > 0 ->
        Unix.sleepf 0.01;
        healthy (k - 1)
      | _ -> failwith "wjd never answered /health"
    in
    healthy 500;
    let warm =
      Array.mapi
        (fun j (_, sql) ->
          C.request ~port:p.port ~meth:"POST" ~path:"/query"
            ~body:(body ~sql ~seed:(seed + 100 + j) ~target_pct:sizes.target_pct)
            ())
        templates
    in
    (p, warm, M.now () -. t0)
  with e ->
    C.kill p;
    raise e

(* Run [f] against a started daemon, which is stopped and reaped whatever
   happens. *)
let with_daemon p f =
  match f () with
  | x ->
    C.stop p;
    x
  | exception e ->
    C.kill p;
    raise e

(* Requests until [deadline] (or the fixed count), from [clients]. *)
let load sizes ~port ~seed ~deadline ~traced =
  let t0 = M.now () in
  let results =
    C.run_load ~port ~clients
      ~continue:(fun i ->
        match sizes.requests with Some n -> i < n | None -> M.now () < deadline)
      ~make:(C.nth_request ~traced ~body:(template_body sizes ~seed))
  in
  (results, M.now () -. t0)

(* ---- correctness ------------------------------------------------------------- *)

let catalog sizes ~seed = Generator.catalog (Generator.generate ~seed ~sf:sizes.sf ())

let exact catalog sql =
  let online = "SELECT ONLINE " in
  let plain =
    "SELECT " ^ String.sub sql (String.length online) (String.length sql - String.length online)
  in
  match (Wj_sql.Engine.execute catalog plain).items with
  | [ (_, Wj_sql.Engine.Exact_scalar e) ] -> e.value
  | _ -> failwith ("unexpected result shape for " ^ plain)

(* Every answer against the exact value of its template; each warm-up
   additionally bit for bit against the same statement run in-process
   with the same seed. *)
let check_all tally sizes ~seed ~catalog ~warm results =
  let truths = Array.map (fun (_, sql) -> exact catalog sql) templates in
  let target = sizes.target_pct /. 100.0 in
  Array.iteri
    (fun j (name, sql) ->
      Inproc.check_same_as_inproc tally ~what:("wjd_mixed warm-up " ^ name) ~catalog ~sql
        (Wj_core.Run_config.make ~seed:(seed + 100 + j) ~max_time:300.0
           ~target:(Wj_stats.Target.relative target) ())
        warm.(j))
    templates;
  Inproc.check_replies tally ~what:"wjd_mixed" ~reason:"target_reached"
    ~fresh:(fun r ~id ~estimate ~half_width ->
      M.check_answer tally ~what:id ~truth:truths.(r.req.template) ~target ~estimate ~half_width)
    results

(* ---- end to end ------------------------------------------------------------------ *)

(* The wire reports only the daemon's major-heap size, which steps with
   the collector's cycles (64 or 98 MB for the same ready state, by
   seed).  What the ready daemon holds is measured instead on the same
   state built in this process: the shared registry, cache and metrics
   after one request per template. *)
let ready_mb sizes ~seed ~catalog =
  let daemon = Wj_daemon.Daemon.create ~port:0 catalog in
  Wj_daemon.Daemon.start daemon;
  Fun.protect
    ~finally:(fun () -> Wj_daemon.Daemon.stop daemon)
    (fun () ->
      let port = Wj_daemon.Daemon.port daemon in
      Array.iteri
        (fun j (_, sql) ->
          ignore
            (C.request ~port ~meth:"POST" ~path:"/query"
               ~body:(body ~sql ~seed:(seed + 100 + j) ~target_pct:sizes.target_pct)
               ()))
        templates;
      M.held_mb ~inputs:catalog daemon)

(* The window, [seconds], starts before the first set-up. *)
let run_e2e ~wjcli sizes ~seed ~seconds ~setups tally =
  let deadline = M.now () +. seconds in
  let rec set_up k times =
    let p, warm, dt = start ~wjcli sizes ~seed ~access_log:None in
    if k + 1 = setups then (p, warm, dt :: times)
    else begin
      C.stop p;
      set_up (k + 1) (dt :: times)
    end
  in
  let p, warm, setup_times = set_up 0 [] in
  let results, wall =
    with_daemon p (fun () -> load sizes ~port:p.port ~seed ~deadline ~traced:false)
  in
  let catalog = catalog sizes ~seed:Inproc.data_seed in
  check_all tally sizes ~seed ~catalog ~warm results;
  let fresh = Daemon_stack.fresh results in
  let first r =
    if Float.is_nan r.C.reply.first_progress_s then r.C.reply.final_s else r.C.reply.first_progress_s
  in
  Printf.printf "wjd_mixed: %d requests (%d fresh) from %d clients in %.2fs\n"
    (List.length results) (List.length fresh) clients wall;
  Array.iteri
    (fun j (name, _) ->
      let ms =
        List.filter_map
          (fun (r : C.result) ->
            if r.req.template = j then Some (1000.0 *. r.reply.final_s) else None)
          fresh
      in
      Printf.printf "  %-9s %4d fresh, latency p50 %8.2f ms, p90 %8.2f ms\n" name
        (List.length ms) (M.median ms) (M.percentile ms 90.0))
    templates;
  (* Per-shape medians, combined geometrically so that each shape's
     relative change weighs the same. *)
  let typical f =
    Daemon_stack.geomean (Daemon_stack.per_template ~templates:(Array.length templates) f fresh)
  in
  [
    M.metric "setup_s" "s" (M.median setup_times);
    M.metric "time_to_ci_s" "s" (typical (fun r -> r.C.reply.final_s));
    M.metric "first_estimate_ms" "ms" (typical (fun r -> 1000.0 *. first r));
    M.metric "heap_mb" "MB" (ready_mb sizes ~seed ~catalog);
    M.metric "throughput_qps" "1/s"
      (float_of_int (List.length (List.filter Daemon_stack.ok results)) /. wall);
  ]

(* ---- traced ------------------------------------------------------------------------ *)

(* The daemon's walking layer, ledgered in-process: t_q3 bound from SQL
   over the same data. *)
let ledger_spec sizes =
  let t_q3 = snd templates.(1) in
  {
    Inproc.name = "wjd_mixed";
    sf = sizes.sf;
    generate =
      (fun ~seed ->
        let catalog = catalog sizes ~seed in
        let bound = Wj_sql.Binder.bind catalog (Wj_sql.Parser.parse t_q3) in
        { Inproc.mem_q = snd (List.hd bound.queries); catalog; sql = t_q3 });
    truth = Inproc.exact;
    target = sizes.target_pct /. 100.0;
    pool_pages = None;
    ledger_walks = sizes.ledger_walks;
    probe_walks = 0;
    probe_requests = 0;
  }

let run_traced ~wjcli sizes ~seed ~seconds ~workdir tally =
  let inst, _, layer_metrics = Inproc.layers (ledger_spec sizes) ~seed ~workdir tally in
  Inproc.remove_tree inst.dir;
  let catalog = inst.data.catalog in
  let log = Filename.concat workdir "wjd-access.log" in
  let p, warm, _ = start ~wjcli sizes ~seed ~access_log:(Some log) in
  let results, daemon_metrics, costs =
    with_daemon p (fun () ->
        let results, _ =
          load sizes ~port:p.port ~seed ~deadline:(M.now () +. seconds) ~traced:true
        in
        let costs =
          Daemon_stack.statement_costs catalog (Array.to_list (Array.map snd templates))
        in
        ( results,
          Daemon_stack.metrics ~templates:(Array.length templates) ~port:p.port ~log ~costs
            results,
          costs ))
  in
  check_all tally sizes ~seed ~catalog ~warm results;
  Printf.printf "wjd_mixed per template: first byte p50 ms / registry build ms (in-process)\n";
  Array.iteri
    (fun j (name, _) ->
      let fb =
        List.filter_map
          (fun (r : C.result) ->
            if r.req.template = j && r.req.repeat_of = None && r.reply.status = 200 then
              Some (1000.0 *. r.reply.first_byte_s)
            else None)
          results
      in
      Printf.printf "  %-9s %10.2f %10.2f\n" name (M.median fb) (List.nth costs.build_ms_each j))
    templates;
  layer_metrics @ daemon_metrics
