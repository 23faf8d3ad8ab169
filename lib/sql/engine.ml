module Online = Wj_core.Online
module Exact = Wj_exec.Exact
module Value = Wj_storage.Value

type item_outcome =
  | Online_scalar of Online.outcome
  | Online_groups of Online.group_outcome
  | Exact_scalar of Exact.result
  | Exact_groups of (Value.t * Exact.result) list

type result = {
  statement : Ast.statement;
  items : (Ast.select_item * item_outcome) list;
}

let item_label (item : Ast.select_item) =
  let name = Ast.agg_name item.agg in
  match item.arg with
  | None -> name ^ "(*)"
  | Some e -> Format.asprintf "%s(%a)" name Ast.pp_expr e

(* Statement clauses override the session config: WITHINTIME beats
   [cfg.max_time], CONFIDENCE beats [cfg.confidence], REPORTINTERVAL
   beats [cfg.report_every]. *)
let apply_clauses (cfg : Wj_core.Run_config.t) (statement : Ast.statement)
    (bound : Binder.bound) =
  {
    cfg with
    Wj_core.Run_config.confidence =
      (match statement.Ast.confidence with
      | Some _ -> bound.Binder.confidence
      | None -> cfg.Wj_core.Run_config.confidence);
    max_time =
      Option.value bound.Binder.within_time ~default:cfg.Wj_core.Run_config.max_time;
    report_every =
      (match bound.Binder.report_interval with
      | Some _ as r -> r
      | None -> cfg.Wj_core.Run_config.report_every);
  }

(* Swap the catalog's tables for their paged twins when the session asks
   for the paged backend — before binding, so indexes build from (and
   walks fault through) the segment files. *)
let apply_backend (cfg : Wj_core.Run_config.t) catalog =
  fst (Wj_storage.Backend.prepare_catalog cfg.Wj_core.Run_config.backend catalog)

(* Build one registry per bound query, sharing physical indexes through
   [shared] (threaded across a statement's aggregates — and, in [serve],
   across every statement of the batch). *)
let build_registries shared queries =
  List.map
    (fun (_, q) ->
      let r = Wj_core.Registry.build_for_query ?share:!shared q in
      (match !shared with None -> shared := Some (q, r) | Some _ -> ());
      r)
    queries

(* The exact executor's answer for one bound aggregate: per group under
   GROUP BY, one value otherwise. *)
let exact_item q registry =
  match q.Wj_core.Query.group_by with
  | Some _ -> Exact_groups (Exact.group_aggregate q registry)
  | None -> Exact_scalar (Exact.aggregate q registry)

let execute_session ?on_report (cfg : Wj_core.Run_config.t) catalog sql =
  let catalog = apply_backend cfg catalog in
  let statement = Parser.parse sql in
  let bound = Binder.bind catalog statement in
  let cfg = apply_clauses cfg statement bound in
  let registries = build_registries (ref None) bound.Binder.queries in
  let items =
    List.map2
      (fun (item, q) registry ->
        let outcome =
          if bound.online then begin
            match q.Wj_core.Query.group_by with
            | Some _ ->
              let on_group_report =
                Option.map
                  (fun f t groups ->
                    List.iter
                      (fun (key, (r : Online.report)) ->
                        f
                          (Printf.sprintf "[%6.2fs] %s %s = %.6g +/- %.3g" t
                             (item_label item) (Value.to_display key) r.estimate
                             r.half_width))
                      groups)
                  on_report
              in
              Online_groups (Online.run_group_by_session ?on_group_report cfg q registry)
            | None ->
              let on_report_fn =
                Option.map
                  (fun f (r : Online.report) ->
                    f
                      (Printf.sprintf "[%6.2fs] %s = %.6g +/- %.3g (walks %d)"
                         r.elapsed (item_label item) r.estimate r.half_width r.walks))
                  on_report
              in
              Online_scalar (Online.run_session ?on_report:on_report_fn cfg q registry)
          end
          else exact_item q registry
        in
        (item, outcome))
      bound.queries registries
  in
  { statement; items }

let execute ?(seed = 11) ?(default_time = 5.0) ?sink ?on_report catalog sql =
  execute_session ?on_report
    (Wj_core.Run_config.make ~seed ~max_time:default_time ?sink ())
    catalog sql

(* ---- Batch / serve mode ---------------------------------------------- *)

module Scheduler = Wj_service.Scheduler

type served_item = {
  item : Ast.select_item;
  outcome : item_outcome option;
      (* [None] when the session was retired before ever running *)
  session_state : Scheduler.state;
  session_reason : Wj_obs.Event.stop_reason option;
      (* why the driver stopped; [None] for exact items and sessions
         retired before running *)
}

type served = {
  served_sql : string;
  served_statement : Ast.statement;
  served_items : served_item list;
}

(* What we hold per ONLINE aggregate between submission and drain.  All
   online items flow through the unified [Scheduler.submit] path, which
   reads the scalar/group split off the query; it only reappears here
   when the outcome is read back. *)
type pending =
  | P_session of Scheduler.session
  | P_exact of item_outcome

let serve ?quantum ?max_live ?policy ?domains ?(sink = Wj_obs.Sink.noop)
    ?deadline (cfg : Wj_core.Run_config.t) catalog sqls =
  let catalog = apply_backend cfg catalog in
  (* Paged tables read through one buffer pool, which is single-domain. *)
  if
    Option.value domains ~default:1 > 1
    && List.exists Wj_storage.Table.is_paged (Wj_storage.Catalog.tables catalog)
  then invalid_arg "Sql.Engine.serve: paged tables need domains = 1";
  let sched =
    Scheduler.create ?quantum ?max_live ?policy ?domains ~sink
      ?clock:cfg.Wj_core.Run_config.clock ()
  in
  (* One shared-index thread across the whole batch: statements over the
     same joins reuse one physical registry, which is the point of
     admitting them into one service. *)
  let shared = ref None in
  let statements =
    List.mapi
      (fun si sql ->
        let statement = Parser.parse sql in
        let bound = Binder.bind catalog statement in
        let cfg = apply_clauses cfg statement bound in
        let registries = build_registries shared bound.Binder.queries in
        let pendings =
          List.map2
            (fun (item, q) registry ->
              let label = Printf.sprintf "stmt%d %s" si (item_label item) in
              let p =
                if bound.Binder.online then
                  P_session
                    (Scheduler.submit sched ~label ?deadline ~pin:si cfg q
                       registry)
                else P_exact (exact_item q registry)
              in
              (item, p))
            bound.Binder.queries registries
        in
        (sql, statement, pendings))
      sqls
  in
  Scheduler.drain sched;
  List.map
    (fun (sql, statement, pendings) ->
      {
        served_sql = sql;
        served_statement = statement;
        served_items =
          List.map
            (fun (item, p) ->
              match p with
              | P_session s ->
                let outcome =
                  match Scheduler.result s with
                  | Some (Wj_core.Session.Scalar o) -> Some (Online_scalar o)
                  | Some (Wj_core.Session.Groups g) -> Some (Online_groups g)
                  | None -> None
                in
                {
                  item;
                  outcome;
                  session_state = Scheduler.state s;
                  session_reason = Scheduler.stop_reason s;
                }
              | P_exact o ->
                {
                  item;
                  outcome = Some o;
                  session_state = Scheduler.Done;
                  session_reason = None;
                })
            pendings;
      })
    statements

let render_outcome buf label outcome =
  match outcome with
  | Online_scalar o ->
    Buffer.add_string buf
      (Printf.sprintf "%s = %.6g +/- %.4g  (walks %d, %.2fs, plan: %s)\n" label
         o.Online.final.estimate o.Online.final.half_width o.Online.final.walks
         o.Online.final.elapsed o.Online.plan_description)
  | Online_groups g ->
    List.iter
      (fun (key, (rep : Online.report)) ->
        Buffer.add_string buf
          (Printf.sprintf "%s [%s] = %.6g +/- %.4g\n" label
             (Value.to_display key) rep.estimate rep.half_width))
      g.Online.groups
  | Exact_scalar e ->
    Buffer.add_string buf (Printf.sprintf "%s = %.6g  (exact)\n" label e.Exact.value)
  | Exact_groups gs ->
    List.iter
      (fun (key, (e : Exact.result)) ->
        Buffer.add_string buf
          (Printf.sprintf "%s [%s] = %.6g  (exact)\n" label (Value.to_display key)
             e.Exact.value))
      gs

let render r =
  let buf = Buffer.create 256 in
  List.iter (fun (item, outcome) -> render_outcome buf (item_label item) outcome) r.items;
  Buffer.contents buf

let render_served served =
  let buf = Buffer.create 256 in
  List.iteri
    (fun si s ->
      Buffer.add_string buf (Printf.sprintf "-- [%d] %s\n" si s.served_sql);
      List.iter
        (fun si ->
          match si.outcome with
          | Some o ->
            let label = item_label si.item in
            let label =
              if Scheduler.is_terminal si.session_state
                 && si.session_state <> Scheduler.Done
              then label ^ " (" ^ Scheduler.state_name si.session_state ^ ")"
              else label
            in
            let label =
              match si.session_reason with
              | Some r -> label ^ " [" ^ Wj_obs.Event.stop_reason_name r ^ "]"
              | None -> label
            in
            render_outcome buf label o
          | None ->
            Buffer.add_string buf
              (Printf.sprintf "%s: %s before running\n" (item_label si.item)
                 (Scheduler.state_name si.session_state)))
        s.served_items)
    served;
  Buffer.contents buf
