(* wjcli — command-line front end for the wander join engine.

   The subcommand overview in `wjcli --help` and every flag's usage line
   are generated from the [Flag] and [commands] tables below — edit those
   tables, never a doc string elsewhere, so help cannot drift from the
   implementation.

   Data comes from the built-in deterministic generator (--sf) or from
   official dbgen .tbl files (--tbl-dir). *)

open Cmdliner

(* --- the one flag table ------------------------------------------------ *)

(* Every reusable flag is one [spec]: names, metavariable, one doc line.
   Cmdliner [Arg.info]s are built from the spec, so the --help output of
   every subcommand quotes exactly this table. *)
module Flag = struct
  type spec = { names : string list; docv : string; doc : string }

  let info { names; docv; doc } = Arg.info names ~docv ~doc

  let sf =
    {
      names = [ "sf" ];
      docv = "SF";
      doc = "TPC-H scale factor (1.0 = 1.5M orders; 0.01 is a quick demo).";
    }

  let seed =
    {
      names = [ "seed" ];
      docv = "SEED";
      doc = "Random seed for data generation and sampling.";
    }

  let tbl_dir =
    {
      names = [ "tbl-dir" ];
      docv = "DIR";
      doc = "Load official dbgen .tbl files from this directory instead of generating.";
    }

  let metrics =
    {
      names = [ "metrics" ];
      docv = "";
      doc = "Collect walk/driver/index observability metrics and print a snapshot.";
    }

  let metrics_json =
    {
      names = [ "metrics-json" ];
      docv = "FILE";
      doc = "Write the metrics snapshot as JSON to $(docv) (implies --metrics).";
    }

  let time budget =
    {
      names = [ "time" ];
      docv = "SECONDS";
      doc = Printf.sprintf "Time budget in seconds (default %g)." budget;
    }

  let target =
    {
      names = [ "target" ];
      docv = "PCT";
      doc = "Stop at this relative confidence half-width, in percent.";
    }

  let barebone =
    {
      names = [ "barebone" ];
      docv = "";
      doc = "Drop the selection predicates (barebone join).";
    }

  let exact =
    {
      names = [ "exact" ];
      docv = "";
      doc = "Also run the exact join and report the actual error.";
    }

  let complete =
    {
      names = [ "complete" ];
      docv = "";
      doc =
        "Run-to-completion mode: race wander join against the full join in a \
         second domain and return the exact answer when it lands.";
    }

  let stratified =
    {
      names = [ "stratified" ];
      docv = "";
      doc = "Use stratified sampling (one stratum per group, adaptive allocation).";
    }

  let quantum =
    {
      names = [ "quantum" ];
      docv = "STEPS";
      doc = "Scheduler quantum: engine steps granted per session turn.";
    }

  let max_live =
    {
      names = [ "max-live" ];
      docv = "N";
      doc = "Admission cap: sessions running concurrently; the rest queue FIFO.";
    }

  let domains =
    {
      names = [ "domains" ];
      docv = "N";
      doc =
        "Shard the scheduler drain across N OCaml domains (sessions are \
         pinned per statement; estimates are identical at any domain count). \
         Paged tables ($(b,--memory-budget)) need N = 1.";
    }

  let policy =
    {
      names = [ "policy" ];
      docv = "POLICY";
      doc = "Scheduling policy: $(b,round-robin) or $(b,widest-ci).";
    }

  let deadline =
    {
      names = [ "deadline" ];
      docv = "SECONDS";
      doc = "Per-session deadline from admission; expired sessions stop within one quantum.";
    }

  let interval =
    {
      names = [ "interval" ];
      docv = "SECONDS";
      doc = "Live view refresh interval (default 0.5).";
    }

  let record =
    {
      names = [ "record" ];
      docv = "FILE";
      doc =
        "Dump the flight recorder (time series, convergence diagnostics, trace \
         events) as Chrome-trace-loadable JSON to $(docv).";
    }

  let trace =
    {
      names = [ "trace" ];
      docv = "";
      doc = "Record begin/end spans (quanta, driver advances, optimizer trials).";
    }

  let memory_budget =
    {
      names = [ "memory-budget" ];
      docv = "PAGES";
      doc =
        "Select the paged storage backend: serve table data from on-disk \
         column segments through a buffer pool of $(docv) pages (one page = \
         32 rows of one column).";
    }

  let data_dir =
    {
      names = [ "data-dir" ];
      docv = "PATH";
      doc =
        "Directory for the paged backend's segment files (default _wjdata; \
         setting it implies the paged backend).";
    }
end

let sf_arg = Arg.(value & opt float 0.01 & Flag.(info sf))
let seed_arg = Arg.(value & opt int 7 & Flag.(info seed))
let tbl_dir_arg = Arg.(value & opt (some dir) None & Flag.(info tbl_dir))
let memory_budget_arg = Arg.(value & opt (some int) None & Flag.(info memory_budget))
let data_dir_arg = Arg.(value & opt (some string) None & Flag.(info data_dir))

(* --- paged backend ----------------------------------------------------- *)

(* Either flag opts into the paged backend; the other takes its default. *)
let backend_of memory_budget data_dir =
  match (memory_budget, data_dir) with
  | None, None -> None
  | pool_pages, dir -> Some (Wj_storage.Backend.paged ?dir ?pool_pages ())

(* Page the catalog here (rather than letting the SQL engine do it from
   [cfg.backend]) so the CLI holds the pool and can report fault counts
   after the run. *)
let paged_catalog backend catalog =
  match backend with
  | None -> (catalog, None)
  | Some b ->
    Printf.printf "Paging tables: %s ...\n%!" (Format.asprintf "%a" Wj_storage.Backend.pp b);
    Wj_storage.Backend.prepare_catalog b catalog

let pool_report = function
  | None -> ()
  | Some pool ->
    let module P = Wj_storage.Buffer_pool in
    let hits = P.hits pool and misses = P.misses pool in
    Printf.printf
      "buffer pool: %d/%d pages resident; %d accesses = %d hits + %d misses \
       (%.1f%% hit rate)\n"
      (P.resident pool) (P.capacity pool) (P.accesses pool) hits misses
      (if P.accesses pool = 0 then 0.0
       else 100.0 *. float_of_int hits /. float_of_int (P.accesses pool))

(* --- metrics ---------------------------------------------------------- *)

let metrics_arg = Arg.(value & flag & Flag.(info metrics))
let metrics_json_arg = Arg.(value & opt (some string) None & Flag.(info metrics_json))

(* When collection is on, hand the run a metrics-backed sink; afterwards
   render the snapshot (and optionally dump it as JSON). *)
let metrics_sink ~metrics ~json =
  if metrics || json <> None then begin
    let m = Wj_obs.Metrics.create () in
    (Wj_obs.Sink.of_metrics m, Some m)
  end
  else (Wj_obs.Sink.noop, None)

let metrics_finish ~json m_opt =
  match m_opt with
  | None -> ()
  | Some m ->
    let snap = Wj_obs.Snapshot.of_metrics m in
    print_string (Wj_obs.Snapshot.render snap);
    (match json with
    | None -> ()
    | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Wj_util.Json.to_string (Wj_obs.Snapshot.to_json snap));
          output_char oc '\n');
      Printf.printf "metrics JSON written to %s\n" file)

let load sf seed tbl_dir =
  match tbl_dir with
  | Some dir ->
    Printf.printf "Loading dbgen .tbl files from %s ...\n%!" dir;
    let d = Wj_tpch.Tbl_loader.load_dir dir in
    Printf.printf "  %d rows total (inferred SF %.3g)\n%!"
      (Wj_tpch.Generator.total_rows d) d.sf;
    d
  | None ->
    Printf.printf "Generating TPC-H data at SF %g (seed %d)...\n%!" sf seed;
    let d = Wj_tpch.Generator.generate ~seed ~sf () in
    Printf.printf "  %d rows total\n%!" (Wj_tpch.Generator.total_rows d);
    d

let sql_errors run =
  match run () with
  | code -> code
  | exception Wj_sql.Lexer.Lex_error (msg, off) ->
    Printf.eprintf "lex error at offset %d: %s\n" off msg;
    1
  | exception Wj_sql.Parser.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    1
  | exception Wj_sql.Binder.Bind_error msg ->
    Printf.eprintf "bind error: %s\n" msg;
    1

(* --- query ------------------------------------------------------------ *)

let query_run sf seed tbl_dir memory_budget data_dir metrics json sql =
  let d = load sf seed tbl_dir in
  let catalog = Wj_tpch.Generator.catalog d in
  let catalog, pool = paged_catalog (backend_of memory_budget data_dir) catalog in
  let sink, m_opt = metrics_sink ~metrics ~json in
  sql_errors (fun () ->
      let r = Wj_sql.Engine.execute ~seed ~sink ~on_report:print_endline catalog sql in
      print_string (Wj_sql.Engine.render r);
      pool_report pool;
      metrics_finish ~json m_opt;
      0)

let query_term =
  let sql_arg =
    let doc = "The SQL statement to execute." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  Term.(
    const query_run $ sf_arg $ seed_arg $ tbl_dir_arg $ memory_budget_arg
    $ data_dir_arg $ metrics_arg $ metrics_json_arg $ sql_arg)

(* --- serve ------------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "round-robin" | "rr" -> Ok Wj_service.Scheduler.Round_robin
    | "widest-ci" | "widest" -> Ok Wj_service.Scheduler.Widest_ci
    | _ -> Error (`Msg "expected round-robin or widest-ci")
  in
  let print fmt p =
    Format.fprintf fmt "%s"
      (match p with
      | Wj_service.Scheduler.Round_robin -> "round-robin"
      | Wj_service.Scheduler.Widest_ci -> "widest-ci")
  in
  Arg.conv (parse, print)

let serve_run sf seed tbl_dir memory_budget data_dir metrics json time quantum
    max_live domains policy deadline sqls =
  let d = load sf seed tbl_dir in
  let catalog = Wj_tpch.Generator.catalog d in
  let catalog, pool = paged_catalog (backend_of memory_budget data_dir) catalog in
  let msink, m_opt = metrics_sink ~metrics ~json in
  (* Interleaved progress: render the scheduler's Session_* event stream. *)
  let labels : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let name id = try Hashtbl.find labels id with Not_found -> Printf.sprintf "session%d" id in
  let on_event : Wj_obs.Event.t -> unit = function
    | Session_admitted { session; label } ->
      Hashtbl.replace labels session label;
      Printf.printf "%-24s admitted\n%!" label
    | Session_started { session } -> Printf.printf "%-24s started\n%!" (name session)
    | Session_report { session; progress = p; deadline_left } ->
      let deadline =
        match deadline_left with
        | None -> ""
        | Some d -> Printf.sprintf " [%.2fs left]" d
      in
      Printf.printf "%-24s [%6.2fs] %.6g +/- %.4g (%d walks)%s\n%!" (name session)
        p.Wj_obs.Progress.elapsed p.Wj_obs.Progress.estimate
        p.Wj_obs.Progress.half_width p.Wj_obs.Progress.walks deadline
    | Session_finished { session; outcome; reason } ->
      let why = match reason with None -> "" | Some r -> " (" ^ r ^ ")" in
      Printf.printf "%-24s finished: %s%s\n%!" (name session) outcome why
    | _ -> ()
  in
  let sink = Wj_obs.Sink.tee (Wj_obs.Sink.of_fn on_event) msink in
  let cfg = Wj_core.Run_config.make ~seed ~max_time:time () in
  let sqls =
    List.concat_map (String.split_on_char ';') sqls
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  sql_errors (fun () ->
      match
        Wj_sql.Engine.serve ?quantum ?max_live ?domains ~policy ~sink ?deadline
          cfg catalog sqls
      with
      | served ->
        print_string (Wj_sql.Engine.render_served served);
        pool_report pool;
        metrics_finish ~json m_opt;
        0
      | exception Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        1)

let serve_term =
  let sqls_arg =
    let doc = "SQL statements to run concurrently (also split on ';')." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SQL" ~doc)
  in
  let time_arg = Arg.(value & opt float 5.0 & Flag.(info (time 5.0))) in
  let quantum_arg = Arg.(value & opt (some int) None & Flag.(info quantum)) in
  let max_live_arg = Arg.(value & opt (some int) None & Flag.(info max_live)) in
  let domains_arg = Arg.(value & opt (some int) None & Flag.(info domains)) in
  let policy_arg =
    Arg.(value & opt policy_conv Wj_service.Scheduler.Round_robin & Flag.(info policy))
  in
  let deadline_arg = Arg.(value & opt (some float) None & Flag.(info deadline)) in
  Term.(
    const serve_run $ sf_arg $ seed_arg $ tbl_dir_arg $ memory_budget_arg
    $ data_dir_arg $ metrics_arg $ metrics_json_arg $ time_arg $ quantum_arg
    $ max_live_arg $ domains_arg $ policy_arg $ deadline_arg $ sqls_arg)

(* --- top -------------------------------------------------------------- *)

(* The flight recorder's post-mortem: per-scope convergence diagnostics
   (fitted CI decay, per-plan variance attribution, stalled plans) and,
   when tracing, where the time went by span name. *)
let print_recorder_summary recorder =
  List.iter
    (fun scope ->
      let c = Wj_obs.Recorder.convergence recorder ~scope in
      let where = if scope = "" then "run" else String.sub scope 0 (String.length scope - 1) in
      (match Wj_obs.Convergence.fit c with
      | None -> ()
      | Some f ->
        Printf.printf
          "%s: CI ~ %.4g * walks^%.3f over %d samples (convergence ratio %.2f)\n"
          where f.Wj_obs.Convergence.c f.Wj_obs.Convergence.exponent
          f.Wj_obs.Convergence.points
          (Option.value ~default:Float.nan (Wj_obs.Convergence.convergence_ratio c)));
      List.iter
        (fun (a : Wj_obs.Convergence.attribution) ->
          Printf.printf "  %5.1f%% of variance mass: %-50s (%d/%d walks ok, var %.4g)\n"
            (100.0 *. a.Wj_obs.Convergence.share)
            a.Wj_obs.Convergence.plan a.Wj_obs.Convergence.successes
            a.Wj_obs.Convergence.attempts a.Wj_obs.Convergence.variance)
        (Wj_obs.Convergence.attribution c);
      (match Wj_obs.Convergence.stalled c with
      | [] -> ()
      | ps -> Printf.printf "  stalled plans: %s\n" (String.concat "; " ps)))
    (Wj_obs.Recorder.convergence_scopes recorder);
  match Wj_obs.Recorder.trace recorder with
  | None -> ()
  | Some tr ->
    List.iter
      (fun (name, (seconds, count)) ->
        Printf.printf "span %-24s %8d x, %.4fs total\n" name count seconds)
      (Wj_obs.Trace.totals tr);
    if Wj_obs.Trace.dropped tr > 0 then
      Printf.printf "(%d trace events dropped at capacity)\n" (Wj_obs.Trace.dropped tr)

let write_record recorder file =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Wj_util.Json.to_string (Wj_obs.Recorder.to_json recorder));
      output_char oc '\n');
  Printf.printf "flight record written to %s (load in chrome://tracing)\n" file

(* One live table row per scheduler session, updated from the milestone
   event stream. *)
type top_row = {
  r_id : int;
  mutable r_label : string;
  mutable r_state : string;
  mutable r_progress : Wj_obs.Progress.t option;
  mutable r_rate : float;  (* walks/s between the last two reports *)
}

let top_run sf seed tbl_dir memory_budget data_dir time quantum max_live policy
    deadline interval tracing record sqls =
  let d = load sf seed tbl_dir in
  let catalog = Wj_tpch.Generator.catalog d in
  let catalog, pool = paged_catalog (backend_of memory_budget data_dir) catalog in
  let recorder = Wj_obs.Recorder.create ~tracing () in
  let rows : (int, top_row) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let row id =
    match Hashtbl.find_opt rows id with
    | Some r -> r
    | None ->
      let r =
        {
          r_id = id;
          r_label = Printf.sprintf "session%d" id;
          r_state = "queued";
          r_progress = None;
          r_rate = Float.nan;
        }
      in
      Hashtbl.add rows id r;
      order := id :: !order;
      r
  in
  let conv_ratio id =
    let c =
      Wj_obs.Recorder.convergence recorder
        ~scope:(Wj_obs.Recorder.scope_of_session id)
    in
    Wj_obs.Convergence.convergence_ratio c
  in
  let table () =
    let header =
      Printf.sprintf "%-24s %-10s %10s %9s %13s %11s %6s" "SESSION" "STATE" "WALKS"
        "WALKS/S" "ESTIMATE" "CI+/-" "CONV"
    in
    header
    :: List.rev_map
         (fun id ->
           let r = row id in
           let conv =
             match conv_ratio id with
             | Some v when Float.is_finite v -> Printf.sprintf "%.2f" v
             | _ -> "-"
           in
           match r.r_progress with
           | None ->
             Printf.sprintf "%-24s %-10s %10s %9s %13s %11s %6s" r.r_label r.r_state
               "-" "-" "-" "-" conv
           | Some p ->
             Printf.sprintf "%-24s %-10s %10d %9s %13.6g %11.4g %6s" r.r_label
               r.r_state p.Wj_obs.Progress.walks
               (if Float.is_nan r.r_rate then "-" else Printf.sprintf "%.0f" r.r_rate)
               p.Wj_obs.Progress.estimate p.Wj_obs.Progress.half_width conv)
         !order
  in
  let tty = Unix.isatty Unix.stdout in
  let drawn = ref 0 in
  let last_draw = ref Float.neg_infinity in
  let draw ~force () =
    if tty then begin
      let now = Unix.gettimeofday () in
      if force || now -. !last_draw >= interval then begin
        last_draw := now;
        if !drawn > 0 then Printf.printf "\027[%dA" !drawn;
        let lines = table () in
        List.iter (fun l -> Printf.printf "\027[2K%s\n" l) lines;
        drawn := List.length lines;
        flush stdout
      end
    end
  in
  let on_event : Wj_obs.Event.t -> unit = function
    | Session_admitted { session; label } ->
      (row session).r_label <- label;
      draw ~force:false ()
    | Session_started { session } ->
      (row session).r_state <- "running";
      draw ~force:false ()
    | Session_report { session; progress = p; deadline_left = _ } ->
      let r = row session in
      (match r.r_progress with
      | Some prev
        when p.Wj_obs.Progress.elapsed > prev.Wj_obs.Progress.elapsed
             && p.Wj_obs.Progress.walks > prev.Wj_obs.Progress.walks ->
        r.r_rate <-
          float_of_int (p.Wj_obs.Progress.walks - prev.Wj_obs.Progress.walks)
          /. (p.Wj_obs.Progress.elapsed -. prev.Wj_obs.Progress.elapsed)
      | _ -> ());
      r.r_progress <- Some p;
      draw ~force:false ()
    | Session_finished { session; outcome; reason } ->
      let r = row session in
      r.r_state <-
        (match reason with Some why -> outcome ^ ":" ^ why | None -> outcome);
      draw ~force:false ()
    | _ -> ()
  in
  let sink =
    Wj_obs.Sink.tee
      (Wj_obs.Sink.make ~on_event ~events:`Reports ())
      (Wj_obs.Recorder.sink recorder)
  in
  let cfg = Wj_core.Run_config.make ~seed ~max_time:time ~recorder () in
  let sqls =
    List.concat_map (String.split_on_char ';') sqls
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  sql_errors (fun () ->
      let served =
        Wj_sql.Engine.serve ?quantum ?max_live ~policy ~sink ?deadline cfg catalog
          sqls
      in
      if tty then draw ~force:true () else List.iter print_endline (table ());
      print_newline ();
      print_string (Wj_sql.Engine.render_served served);
      pool_report pool;
      print_recorder_summary recorder;
      (match record with None -> () | Some file -> write_record recorder file);
      0)

let top_term =
  let sqls_arg =
    let doc = "SQL statements to run concurrently (also split on ';')." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SQL" ~doc)
  in
  let time_arg = Arg.(value & opt float 5.0 & Flag.(info (time 5.0))) in
  let quantum_arg = Arg.(value & opt (some int) None & Flag.(info quantum)) in
  let max_live_arg = Arg.(value & opt (some int) None & Flag.(info max_live)) in
  let policy_arg =
    Arg.(value & opt policy_conv Wj_service.Scheduler.Round_robin & Flag.(info policy))
  in
  let deadline_arg = Arg.(value & opt (some float) None & Flag.(info deadline)) in
  let interval_arg = Arg.(value & opt float 0.5 & Flag.(info interval)) in
  let trace_arg = Arg.(value & flag & Flag.(info trace)) in
  let record_arg = Arg.(value & opt (some string) None & Flag.(info record)) in
  Term.(
    const top_run $ sf_arg $ seed_arg $ tbl_dir_arg $ memory_budget_arg
    $ data_dir_arg $ time_arg $ quantum_arg $ max_live_arg $ policy_arg
    $ deadline_arg $ interval_arg $ trace_arg $ record_arg $ sqls_arg)

(* --- tpch ------------------------------------------------------------- *)

let spec_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "q3" -> Ok Wj_tpch.Queries.Q3
    | "q7" -> Ok Wj_tpch.Queries.Q7
    | "q10" -> Ok Wj_tpch.Queries.Q10
    | _ -> Error (`Msg "expected q3, q7 or q10")
  in
  let print fmt s = Format.fprintf fmt "%s" (Wj_tpch.Queries.name_of s) in
  Arg.conv (parse, print)

let spec_arg =
  let doc = "Benchmark query: q3, q7 or q10." in
  Arg.(required & pos 0 (some spec_conv) None & info [] ~docv:"QUERY" ~doc)

let tpch_run sf seed tbl_dir memory_budget data_dir spec barebone time target exact
    complete metrics json record =
  let d = load sf seed tbl_dir in
  let variant = if barebone then Wj_tpch.Queries.Barebone else Standard in
  let q = Wj_tpch.Queries.build ~variant spec d in
  (* Swap the query's tables for paged twins before the registry is
     built, so index builds scan (and fault) the segment files too. *)
  let q, pool =
    match backend_of memory_budget data_dir with
    | None -> (q, None)
    | Some b ->
      Printf.printf "Paging tables: %s ...\n%!"
        (Format.asprintf "%a" Wj_storage.Backend.pp b);
      let tables, pool =
        Wj_storage.Backend.prepare_tables b (Array.to_list q.Wj_core.Query.tables)
      in
      ({ q with Wj_core.Query.tables = Array.of_list tables }, pool)
  in
  let reg = Wj_tpch.Queries.registry q in
  let sink, m_opt = metrics_sink ~metrics ~json in
  let target = Option.map (fun pct -> Wj_stats.Target.relative (pct /. 100.0)) target in
  if complete then begin
    let r =
      Wj_exec.Complete.run ~seed ?target ~report_every:0.5
        ~on_report:(fun rep ->
          Printf.printf "[%6.2fs] estimate %.6g +/- %.4g (%d walks)\n%!" rep.elapsed
            rep.estimate rep.half_width rep.walks)
        q reg
    in
    Printf.printf "full join finished in %.3fs: exact = %.6g (join size %d)\n"
      r.exact_time r.exact.value r.exact.join_size;
    Printf.printf "online at cancellation: %.6g +/- %.4g (%d walks)\n"
      r.online.final.estimate r.online.final.half_width r.online.final.walks;
    0
  end
  else begin
    let recorder =
      match record with
      | None -> None
      | Some _ -> Some (Wj_obs.Recorder.create ~tracing:true ())
    in
    let cfg =
      Wj_core.Run_config.make ~seed ~max_time:time ?target ~report_every:1.0 ~sink
        ?recorder ()
    in
    let out =
      Wj_core.Online.run_session
        ~on_report:(fun r ->
          Printf.printf "[%6.2fs] estimate %.6g +/- %.4g (%d walks, %d successes)\n%!"
            r.elapsed r.estimate r.half_width r.walks r.successes)
        cfg q reg
    in
    Printf.printf "final: %.6g +/- %.4g after %.2fs (%d walks; plan %s)\n"
      out.final.estimate out.final.half_width out.final.elapsed out.final.walks
      out.plan_description;
    if exact then begin
      let e = Wj_exec.Exact.aggregate q reg in
      Printf.printf "exact: %.6g (join size %d); actual error %.4f%%\n" e.value
        e.join_size
        (100.0 *. Float.abs ((out.final.estimate -. e.value) /. e.value))
    end;
    pool_report pool;
    (match m_opt with Some m -> Wj_core.Registry.export_metrics reg m | None -> ());
    metrics_finish ~json m_opt;
    (match (recorder, record) with
    | Some r, Some file ->
      print_recorder_summary r;
      write_record r file
    | _ -> ());
    0
  end

let tpch_term =
  let barebone_arg = Arg.(value & flag & Flag.(info barebone)) in
  let time_arg = Arg.(value & opt float 5.0 & Flag.(info (time 5.0))) in
  let target_arg = Arg.(value & opt (some float) None & Flag.(info target)) in
  let exact_arg = Arg.(value & flag & Flag.(info exact)) in
  let complete_arg = Arg.(value & flag & Flag.(info complete)) in
  let record_arg = Arg.(value & opt (some string) None & Flag.(info record)) in
  Term.(
    const tpch_run $ sf_arg $ seed_arg $ tbl_dir_arg $ memory_budget_arg
    $ data_dir_arg $ spec_arg $ barebone_arg $ time_arg $ target_arg $ exact_arg
    $ complete_arg $ metrics_arg $ metrics_json_arg $ record_arg)

(* --- plans ------------------------------------------------------------ *)

(* 29992 -> "29,992" *)
let rec with_commas n =
  if n < 1000 then string_of_int n
  else Printf.sprintf "%s,%03d" (with_commas (n / 1000)) (n mod 1000)

(* The halving that ran, read off the reports: a plan dropped at a cut
   walked exactly that cut's rounds, and the finalists walked until the
   trials stopped. *)
let halving_schedule (reports : Wj_core.Optimizer.plan_report list) =
  let walks = List.map (fun (p : Wj_core.Optimizer.plan_report) -> p.trial_walks) reports in
  match List.rev (List.sort_uniq compare walks) with
  | [] | [ 0 ] -> "no trial walk"
  | stop :: rev_cuts ->
    let cuts = List.rev rev_cuts in
    let alive w = List.length (List.filter (fun n -> n > w) walks) in
    Printf.sprintf "%s plans%s, stopped at %s"
      (String.concat " \u{2192} " (List.map string_of_int (List.length walks :: List.map alive cuts)))
      (if cuts = [] then ""
       else " at rounds " ^ String.concat "/" (List.map with_commas cuts))
      (with_commas stop)

let plans_run sf seed tbl_dir spec =
  let d = load sf seed tbl_dir in
  let q = Wj_tpch.Queries.build ~variant:Standard spec d in
  let reg = Wj_tpch.Queries.registry q in
  let prng = Wj_util.Prng.create seed in
  let t0 = Unix.gettimeofday () in
  let r = Wj_core.Optimizer.choose q reg prng in
  (* The trials only pick the plan, so their time is pure overhead. *)
  Printf.printf "%d plans enumerated; optimizer trials: %d walks in %.1f ms; %s\n"
    (List.length r.reports) r.total_trial_walks
    (1000.0 *. (Unix.gettimeofday () -. t0))
    (halving_schedule r.reports);
  List.iter
    (fun (p : Wj_core.Optimizer.plan_report) ->
      Printf.printf "%s %-60s  success %4d/%-5d  Var[X] %.4g  E[T] %.4g  Var*E[T] %.4g\n"
        (if p.chosen then "*" else " ")
        (Wj_core.Walk_plan.describe q p.plan)
        p.trial_successes p.trial_walks p.var_x p.cost_t p.objective)
    r.reports;
  0

let plans_term = Term.(const plans_run $ sf_arg $ seed_arg $ tbl_dir_arg $ spec_arg)

(* --- groupby ----------------------------------------------------------- *)

let groupby_run sf seed tbl_dir spec stratified time =
  match spec with
  | Wj_tpch.Queries.Q7 ->
    Printf.eprintf "GROUP BY c_mktsegment is not available for Q7\n";
    1
  | _ ->
    let d = load sf seed tbl_dir in
    let q = Wj_tpch.Queries.build ~variant:Standard ~group_by_segment:true spec d in
    let reg = Wj_tpch.Queries.registry q in
    let print_report key (r : Wj_core.Online.report) extra =
      Printf.printf "  %-14s %12.6g +/- %-10.4g (%5.2f%%)%s\n"
        (Wj_storage.Value.to_display key)
        r.estimate r.half_width
        (100.0 *. r.half_width /. Float.abs r.estimate)
        extra
    in
    if stratified then begin
      (* Stratify on the dictionary-encoded segment id. *)
      let pos, _ = Option.get q.Wj_core.Query.group_by in
      let seg_id =
        Wj_storage.Table.column_index q.Wj_core.Query.tables.(pos) "c_mktsegment_id"
      in
      let q = { q with Wj_core.Query.group_by = Some (pos, seg_id) } in
      Wj_core.Registry.add reg ~pos ~column:seg_id
        (Wj_index.Index.build_trie q.Wj_core.Query.tables.(pos) ~columns:[ seg_id ]);
      let out = Wj_core.Stratified.run ~seed ~max_time:time q reg in
      Printf.printf "stratified, %d walks total:\n" out.total_walks;
      List.iter
        (fun (g : Wj_core.Stratified.group_state) ->
          let label =
            Wj_tpch.Generator.market_segments.(Wj_storage.Value.to_int g.key)
          in
          print_report (Wj_storage.Value.Str label) g.report
            (Printf.sprintf "  [%d walks]" g.report.walks))
        out.strata
    end
    else begin
      let out =
        Wj_core.Online.run_group_by_session
          (Wj_core.Run_config.make ~seed ~max_time:time ())
          q reg
      in
      Printf.printf "plain group-by, %d walks total:\n" out.total_walks;
      List.iter (fun (key, r) -> print_report key r "") out.groups
    end;
    0

let groupby_term =
  let stratified_arg = Arg.(value & flag & Flag.(info stratified)) in
  let time_arg = Arg.(value & opt float 3.0 & Flag.(info (time 3.0))) in
  Term.(
    const groupby_run $ sf_arg $ seed_arg $ tbl_dir_arg $ spec_arg $ stratified_arg
    $ time_arg)

(* --- suggest ------------------------------------------------------------ *)

let suggest_run sf seed tbl_dir spec =
  let d = load sf seed tbl_dir in
  let q = Wj_tpch.Queries.build ~variant:Standard spec d in
  let reg = Wj_tpch.Queries.registry q in
  let order, estimates = Wj_core.Cardinality.suggest_order ~seed q reg in
  Printf.printf "suggested join order: %s\n"
    (String.concat " -> "
       (Array.to_list (Array.map (fun i -> q.Wj_core.Query.names.(i)) order)));
  List.iter
    (fun (e : Wj_core.Cardinality.estimate) ->
      Printf.printf "  after {%s}: ~%.4g results (+/- %.3g, %d walks)\n"
        (String.concat ", "
           (List.map (fun i -> q.Wj_core.Query.names.(i)) e.members))
        e.size e.half_width e.walks)
    estimates;
  (match Wj_core.Walk_plan.of_order q reg order with
  | Some plan ->
    let guided = Wj_exec.Exact.aggregate ~plan q reg in
    let naive = Wj_exec.Exact.aggregate q reg in
    Printf.printf "exact execution cost: %d tuples (FROM order: %d)\n"
      guided.rows_visited naive.rows_visited
  | None -> Printf.printf "(order not walkable with current indexes)\n");
  0

let suggest_term = Term.(const suggest_run $ sf_arg $ seed_arg $ tbl_dir_arg $ spec_arg)

(* --- wjd (network daemon) ---------------------------------------------- *)

module Json = Wj_util.Json

let wjd_run sf seed tbl_dir port quantum max_live max_queued tenant_quota cache
    access_log slow_query_ms trace_cap time =
  let d = load sf seed tbl_dir in
  let catalog = Wj_tpch.Generator.catalog d in
  let daemon =
    Wj_daemon.Daemon.create ?quantum ?max_live ?max_queued ?tenant_quota
      ?cache_capacity:cache ?access_log ?slow_query_ms
      ?trace_capacity:trace_cap ~default_seed:seed ~default_time:time ~port
      catalog
  in
  Wj_daemon.Daemon.start daemon;
  Printf.printf
    "wjd listening on %s (POST /query, GET /stats, GET /metrics; POST /shutdown to stop)\n%!"
    (Wj_daemon.Daemon.url daemon);
  Wj_daemon.Daemon.wait daemon;
  Printf.printf "wjd stopped\n";
  0

let wjd_term =
  let port_arg =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let quantum_arg = Arg.(value & opt (some int) None & Flag.(info quantum)) in
  let max_live_arg = Arg.(value & opt (some int) None & Flag.(info max_live)) in
  let max_queued_arg =
    let doc = "Admission queue bound: further submissions get 429 (default 64)." in
    Arg.(value & opt (some int) None & info [ "max-queued" ] ~docv:"N" ~doc)
  in
  let tenant_quota_arg =
    let doc = "Per-tenant in-flight session quota (default unbounded)." in
    Arg.(value & opt (some int) None & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc = "Estimate cache capacity in entries (default 256)." in
    Arg.(value & opt (some int) None & info [ "cache" ] ~docv:"N" ~doc)
  in
  let access_log_arg =
    let doc =
      "Write one JSON line per request to $(docv) ('-' for stderr): trace id, \
       tenant, statement hash, outcome, queue wait, quanta, walks, final CI, \
       cache disposition."
    in
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let slow_query_ms_arg =
    let doc =
      "Slow-query threshold in milliseconds: requests at or above it log \
       slow:true plus their convergence fit (default off)."
    in
    Arg.(value & opt (some float) None & info [ "slow-query-ms" ] ~docv:"MS" ~doc)
  in
  let trace_cap_arg =
    let doc = "Retained request traces for GET /trace/<id> (default 64)." in
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N" ~doc)
  in
  let time_arg = Arg.(value & opt float 5.0 & Flag.(info (time 5.0))) in
  Term.(
    const wjd_run $ sf_arg $ seed_arg $ tbl_dir_arg $ port_arg $ quantum_arg
    $ max_live_arg $ max_queued_arg $ tenant_quota_arg $ cache_arg
    $ access_log_arg $ slow_query_ms_arg $ trace_cap_arg $ time_arg)

(* --- watch (daemon client) ---------------------------------------------- *)

let print_final_item item =
  let str name = Option.bind (Json.member name item) Json.to_str in
  let flt name = Option.bind (Json.member name item) Json.to_float in
  let int name = Option.bind (Json.member name item) Json.to_int in
  let label = Option.value (str "label") ~default:"?" in
  let print_groups () render =
    List.iter
      (fun g ->
        let key = Option.value (Option.bind (Json.member "key" g) Json.to_str) ~default:"?" in
        render g key)
      (Option.value (Option.bind (Json.member "groups" item) Json.to_list) ~default:[])
  in
  match Option.value (str "kind") ~default:"online" with
  | "exact" ->
    Printf.printf "%s = %.6g  (exact)\n" label
      (Option.value (flt "value") ~default:Float.nan)
  | "exact_groups" ->
    print_groups () (fun g key ->
        Printf.printf "%s [%s] = %.6g  (exact)\n" label key
          (Option.value (Option.bind (Json.member "value" g) Json.to_float)
             ~default:Float.nan))
  | "group_by" ->
    print_groups () (fun g key ->
        let gf name = Option.value (Option.bind (Json.member name g) Json.to_float) ~default:Float.nan in
        Printf.printf "%s [%s] = %.6g +/- %.4g\n" label key (gf "estimate") (gf "half_width"))
  | _ -> (
    match flt "estimate" with
    | Some est ->
      Printf.printf "%s = %.6g +/- %.4g  (walks %d, state %s%s)\n" label est
        (Option.value (flt "half_width") ~default:Float.nan)
        (Option.value (int "walks") ~default:0)
        (Option.value (str "state") ~default:"?")
        (match str "reason" with Some r -> ", " ^ r | None -> "")
    | None ->
      Printf.printf "%s: %s before running\n" label
        (Option.value (str "state") ~default:"?"))

let print_stream_line line =
  match Json.parse line with
  | exception Json.Parse_error _ -> print_endline line
  | j -> (
    match Option.bind (Json.member "type" j) Json.to_str with
    | Some "progress" ->
      let flt name = Option.value (Option.bind (Json.member name j) Json.to_float) ~default:Float.nan in
      let int name = Option.value (Option.bind (Json.member name j) Json.to_int) ~default:0 in
      Printf.printf "[%6.2fs] item %d: %.6g +/- %.4g (walks %d, successes %d)%s\n%!"
        (flt "elapsed") (int "item") (flt "estimate") (flt "half_width")
        (int "walks") (int "successes")
        (match Option.bind (Json.member "deadline_left" j) Json.to_float with
        | Some d -> Printf.sprintf "  [deadline %.1fs]" d
        | None -> "")
    | Some "final" ->
      Printf.printf "--- final (%s%s) ---\n"
        (Option.value (Option.bind (Json.member "status" j) Json.to_str) ~default:"?")
        (if Option.bind (Json.member "cached" j) Json.to_bool = Some true then
           ", cached"
         else "");
      List.iter print_final_item
        (Option.value (Option.bind (Json.member "items" j) Json.to_list) ~default:[])
    | _ -> print_endline line)

let watch_run url sql tenant deadline seed walks target no_cache =
  let fields =
    [ ("sql", Json.Str sql) ]
    @ (match tenant with Some s -> [ ("tenant", Json.Str s) ] | None -> [])
    @ (match deadline with Some f -> [ ("deadline", Json.Float f) ] | None -> [])
    @ (match seed with Some n -> [ ("seed", Json.Int n) ] | None -> [])
    @ (match walks with Some n -> [ ("max_walks", Json.Int n) ] | None -> [])
    @ (match target with Some f -> [ ("target_pct", Json.Float f) ] | None -> [])
    @ if no_cache then [ ("cache", Json.Bool false) ] else []
  in
  let body = Json.to_string (Json.Obj fields) in
  (* Chunk boundaries are line boundaries on the daemon side, but stay
     robust to re-framing: buffer and split on newlines. *)
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
        print_stream_line (String.sub s 0 i);
        drain ()
    in
    drain ()
  in
  match Wj_daemon.Http.fetch ~body ~on_chunk (url ^ "/query") with
  | resp ->
    if resp.Wj_daemon.Http.status = 200 then begin
      (* Non-streamed responses (cache hits, all-exact statements) land
         here without having passed through [on_chunk]. *)
      if Buffer.length partial = 0 && resp.resp_body <> "" then
        String.split_on_char '\n' (String.trim resp.resp_body)
        |> List.iter (fun l -> if l <> "" then print_stream_line l);
      0
    end
    else begin
      Printf.eprintf "HTTP %d %s\n%s" resp.status
        (Wj_daemon.Http.status_reason resp.status)
        resp.resp_body;
      (match List.assoc_opt "retry-after" resp.resp_headers with
      | Some s -> Printf.eprintf "(retry after %ss)\n" s
      | None -> ());
      1
    end
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "connection to %s failed: %s\n" url (Unix.error_message e);
    1
  | exception Wj_daemon.Http.Bad_request msg ->
    Printf.eprintf "malformed response from %s: %s\n" url msg;
    1

let watch_term =
  let url_arg =
    let doc = "Daemon base URL, e.g. http://127.0.0.1:8080." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"URL" ~doc)
  in
  let sql_arg =
    let doc = "The SQL statement to submit." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let tenant_arg =
    let doc = "Tenant name for admission quotas." in
    Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"NAME" ~doc)
  in
  let deadline_arg = Arg.(value & opt (some float) None & Flag.(info deadline)) in
  let seed_opt_arg =
    let doc = "Override the daemon's default sampling seed." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let walks_arg =
    let doc = "Walk budget for the request's online aggregates." in
    Arg.(value & opt (some int) None & info [ "walks" ] ~docv:"N" ~doc)
  in
  let target_arg = Arg.(value & opt (some float) None & Flag.(info target)) in
  let no_cache_arg =
    let doc = "Bypass the daemon's estimate cache for this request." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  Term.(
    const watch_run $ url_arg $ sql_arg $ tenant_arg $ deadline_arg
    $ seed_opt_arg $ walks_arg $ target_arg $ no_cache_arg)

(* --- wjd-top (remote live view) ----------------------------------------- *)

(* A remote [top]: poll a running daemon's [/stats], whose metrics
   snapshot carries every counter and the per-session progress gauges,
   and redraw an ANSI table — no local catalog, just the wire. *)

(* "session<N>.progress.<field>" gauges of a snapshot, grouped per
   session id. *)
let session_rows snap =
  let rows = Hashtbl.create 8 in
  List.iter
    (fun (name, entry) ->
      match (entry, String.index_opt name '.') with
      | Wj_obs.Snapshot.Gauge v, Some dot when String.starts_with ~prefix:"session" name -> (
        match int_of_string_opt (String.sub name 7 (dot - 7)) with
        | Some id ->
          let field = String.sub name (dot + 1) (String.length name - dot - 1) in
          let cells = Option.value (Hashtbl.find_opt rows id) ~default:[] in
          Hashtbl.replace rows id ((field, v) :: cells)
        | None -> ())
      | _ -> ())
    snap;
  Hashtbl.fold (fun id cells acc -> (id, cells) :: acc) rows [] |> List.sort compare

(* Walks so far across every walker: the daemon counts a live session's
   walks under "session<N>.walker.walks" and folds a pruned session's into
   the unscoped "walker.walks". *)
let total_walks snap =
  List.fold_left
    (fun acc (name, entry) ->
      match entry with
      | Wj_obs.Snapshot.Counter n
        when name = "walker.walks" || String.ends_with ~suffix:".walker.walks" name ->
        acc + n
      | _ -> acc)
    0 snap

let wjd_top_run url interval iterations =
  let url =
    if String.length url > 0 && url.[String.length url - 1] = '/' then
      String.sub url 0 (String.length url - 1)
    else url
  in
  let tty = Unix.isatty Unix.stdout in
  let drawn = ref 0 in
  let prev = ref None in
  (* (poll time, cumulative walks) for the walks/s rate *)
  let rec poll n =
    match Wj_daemon.Http.fetch (url ^ "/stats") with
    | exception Unix.Unix_error (e, _, _) ->
      if n = 0 then begin
        Printf.eprintf "connection to %s failed: %s\n" url (Unix.error_message e);
        1
      end
      else begin
        Printf.printf "daemon at %s went away\n" url;
        0
      end
    | exception Wj_daemon.Http.Bad_request msg ->
      Printf.eprintf "malformed response from %s: %s\n" url msg;
      1
    | stats when stats.Wj_daemon.Http.status <> 200 ->
      Printf.eprintf "HTTP %d from %s\n" stats.Wj_daemon.Http.status url;
      1
    | stats ->
      let j =
        try Json.parse (String.trim stats.Wj_daemon.Http.resp_body)
        with Json.Parse_error _ -> Json.Null
      in
      let jint name = Option.value (Option.bind (Json.member name j) Json.to_int) ~default:0 in
      let snap =
        match Json.member "metrics" j with
        | Some m -> ( try Wj_obs.Snapshot.of_json m with Json.Parse_error _ -> [])
        | None -> []
      in
      let count = Wj_obs.Snapshot.counter_value snap in
      let now = Unix.gettimeofday () in
      let walks = total_walks snap in
      let rate =
        match !prev with
        | Some (t0, w0) when now > t0 && walks >= w0 ->
          float_of_int (walks - w0) /. (now -. t0)
        | _ -> Float.nan
      in
      prev := Some (now, walks);
      let lines =
        Printf.sprintf "wjd %s  live %d  queued %d  in-flight %d  epoch %d" url
          (jint "live") (jint "queued") (jint "in_flight") (jint "epoch")
        :: Printf.sprintf
             "requests %d (%d rejected, %d errors)  walks/s %s  cache %d entries (%d \
              hits, %d misses)  traces %d  heap %.1f Mw"
             (count "http.requests") (count "http.rejected") (count "http.errors")
             (if Float.is_nan rate then "-" else Printf.sprintf "%.0f" rate)
             (jint "cache_entries") (count "cache.hits") (count "cache.misses")
             (jint "traces")
             (Wj_obs.Snapshot.gauge_value snap "gc.heap_words" /. 1e6)
        :: Printf.sprintf "%-12s %12s %15s %13s" "SESSION" "WALKS" "ESTIMATE" "CI+/-"
        :: List.map
             (fun (id, cells) ->
               let fmt key spec =
                 match List.assoc_opt key cells with
                 | Some v -> Printf.sprintf spec v
                 | None -> "-"
               in
               Printf.sprintf "%-12s %12s %15s %13s"
                 (Printf.sprintf "session%d" id)
                 (fmt "progress.walks" "%.0f")
                 (fmt "progress.estimate" "%.6g")
                 (fmt "progress.half_width" "%.4g"))
             (session_rows snap)
      in
      if tty then begin
        if !drawn > 0 then Printf.printf "\027[%dA" !drawn;
        List.iter (fun l -> Printf.printf "\027[2K%s\n" l) lines;
        drawn := List.length lines
      end
      else List.iter print_endline lines;
      flush stdout;
      if iterations > 0 && n + 1 >= iterations then 0
      else begin
        Unix.sleepf interval;
        poll (n + 1)
      end
  in
  poll 0

let wjd_top_term =
  let url_arg =
    let doc = "Daemon base URL, e.g. http://127.0.0.1:8080." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"URL" ~doc)
  in
  let interval_arg = Arg.(value & opt float 1.0 & Flag.(info interval)) in
  let iterations_arg =
    let doc = "Stop after $(docv) polls (0 = run until the daemon goes away)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  Term.(const wjd_top_run $ url_arg $ interval_arg $ iterations_arg)

(* --- command table ----------------------------------------------------- *)

(* One row per subcommand: name, one doc line, term.  `wjcli --help`'s
   COMMANDS section is generated by cmdliner from exactly this table. *)
let commands =
  [
    ("query", "Execute a SQL statement (use SELECT ONLINE for online aggregation).", query_term);
    ("serve", "Run several SQL statements concurrently under the session scheduler.", serve_term);
    ("top", "Serve SQL statements with a live per-session view and flight recorder.", top_term);
    ("tpch", "Run a TPC-H benchmark query with wander join.", tpch_term);
    ("plans", "Enumerate walk plans and show the optimizer's evaluation.", plans_term);
    ("groupby", "Online GROUP BY c_mktsegment for a benchmark query.", groupby_term);
    ("suggest", "Suggest a full-join order from wander-join cardinality estimates.", suggest_term);
    ("wjd", "Run the wander-join network daemon (HTTP/1.1 + JSON, see PROTOCOL.md).", wjd_term);
    ("watch", "Submit SQL to a running wjd and watch the CI shrink live.", watch_term);
    ("wjd-top", "Live remote view of a running wjd: poll /stats.", wjd_top_term);
  ]

let () =
  let doc = "Wander join: online aggregation via random walks" in
  let info = Cmd.info "wjcli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          (List.map (fun (name, doc, term) -> Cmd.v (Cmd.info name ~doc) term) commands)))
