(* The wire half of the ledger: per-layer costs of serving statements
   through wjd, from the client's timings of a load, the daemon's own
   /stats, access log and retained traces, and in-process timings of the
   SQL front end on the same statements. *)

module Json = Wj_daemon.Json
module M = Measure
open Wjd_client

let ms x = 1000.0 *. x
let ok r = r.reply.status = 200
let fresh rs = List.filter (fun r -> r.req.repeat_of = None && ok r) rs
let member path j = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* Queue wait per executed (non-cache-hit) request, from the access log. *)
let queue_wait_p50 log =
  In_channel.with_open_text log In_channel.input_lines
  |> List.filter_map (fun line ->
         match Json.parse line with
         | j when Option.bind (Json.member "cache" j) Json.to_str <> Some "hit" ->
           Option.bind (Json.member "queue_wait_ms" j) Json.to_float
         | _ | (exception Json.Parse_error _) -> None)
  |> M.median

let cache_hit_ratio ~port =
  let counter name stats =
    Option.value ~default:0.0
      (Option.bind (member [ "metrics"; "counters"; name ] stats) Json.to_float)
  in
  let stats = Json.parse (get ~port "/stats").body in
  let hits = counter "cache.hits" stats and misses = counter "cache.misses" stats in
  hits /. Float.max 1.0 (hits +. misses)

(* Seconds under the optimizer span and under quantum grants in one
   request's retained trace. *)
let spans trace =
  match member [ "spans" ] trace with
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun (opt, quanta) (name, v) ->
        let s =
          Option.value ~default:0.0 (Option.bind (Json.member "seconds" v) Json.to_float)
        in
        if name = "optimizer.trials" then (opt +. s, quanta)
        else if String.starts_with ~prefix:"quantum:" name then (opt, quanta +. s)
        else (opt, quanta))
      (0.0, 0.0) fields
  | _ -> (0.0, 0.0)

type costs = {
  parse_us : float;
  bind_us : float;
  build_ms : float;
  build_ms_each : float list;  (** per statement, in the order given *)
}

(* Parse and bind timed over many repetitions of each statement (they
   take microseconds); the registry build once per statement.  Each is
   the mean over the workload's statements, as requests rotate evenly
   through them. *)
let statement_costs catalog sqls =
  let per_call f =
    M.median
      (List.init 3 (fun _ ->
           let reps = 500 in
           let (), dt =
             M.time (fun () ->
                 for _ = 1 to reps do
                   ignore (Sys.opaque_identity (f ()))
                 done)
           in
           dt /. float_of_int reps))
  in
  let each =
    List.map
      (fun sql ->
        let stmt = Wj_sql.Parser.parse sql in
        let bound = Wj_sql.Binder.bind catalog stmt in
        let (), build =
          M.time (fun () ->
              List.iter
                (fun (_, q) -> ignore (Sys.opaque_identity (Wj_core.Registry.build_for_query q)))
                bound.Wj_sql.Binder.queries)
        in
        ( per_call (fun () -> Wj_sql.Parser.parse sql),
          per_call (fun () -> Wj_sql.Binder.bind catalog stmt),
          build ))
      sqls
  in
  let avg f = M.mean (List.map f each) in
  {
    parse_us = avg (fun (p, _, _) -> 1e6 *. p);
    bind_us = avg (fun (_, b, _) -> 1e6 *. b);
    build_ms = avg (fun (_, _, r) -> ms r);
    build_ms_each = List.map (fun (_, _, r) -> ms r) each;
  }

(* The median of [f] for each statement shape.  Shapes differ in cost by
   orders of magnitude, so a median over the mixed stream would land on
   whichever shape straddles the middle; the per-shape medians are
   combined instead. *)
let per_template ~templates f rs =
  List.filter_map
    (fun j ->
      match List.filter (fun r -> r.req.template = j) rs with
      | [] -> None
      | rs -> Some (M.median (List.map f rs)))
    (List.init templates Fun.id)

let geomean xs = Float.exp (M.mean (List.map Float.log xs))

let metrics ~templates ~port ~log ~costs results =
  let fr = fresh results in
  let typical f rs = M.mean (per_template ~templates f rs) in
  let first_byte r = ms r.reply.first_byte_s in
  let fb = per_template ~templates first_byte fr in
  let traced, untraced = List.partition (fun r -> r.req.trace_id <> None) fr in
  let latency r = ms r.reply.final_s in
  let span_ms f =
    typical
      (fun r ->
        let opt, quanta = spans (Option.value r.trace ~default:Json.Null) in
        f (latency r) (ms opt) (ms quanta))
      (List.filter (fun r -> r.trace <> None) traced)
  in
  let overhead =
    List.filter_map
      (fun j ->
        let p50 rs =
          M.median (List.filter_map (fun r -> if r.req.template = j then Some (latency r) else None) rs)
        in
        let t = p50 traced and u = p50 untraced in
        if Float.is_nan t || Float.is_nan u then None else Some ((t /. u) -. 1.0))
      (List.init templates Fun.id)
  in
  let connect = List.map (fun r -> ms r.reply.connect_s) (List.filter ok results) in
  let per_req f = M.mean (List.map (fun r -> float_of_int (f r.reply)) fr) in
  [
    M.metric "http.connect_ms" "ms" (M.median connect);
    M.metric "daemon.first_byte_ms" "ms" (M.mean fb);
    M.metric "daemon.first_byte_template_ratio" "ratio" (M.maximum fb /. M.minimum fb);
    M.metric "daemon.stream_ms" "ms" (typical (fun r -> ms (r.reply.final_s -. r.reply.first_byte_s)) fr);
    M.metric "daemon.lines_per_req" "count" (per_req (fun r -> r.lines));
    M.metric "daemon.bytes_per_req" "bytes" (per_req (fun r -> r.bytes));
    M.metric "daemon.queue_wait_ms_p50" "ms" (queue_wait_p50 log);
    M.metric "cache.hit_ratio" "ratio" (cache_hit_ratio ~port);
    M.metric "sql.parse_us" "us" costs.parse_us;
    M.metric "sql.bind_us" "us" costs.bind_us;
    M.metric "registry.build_ms" "ms" costs.build_ms;
    M.metric "trace.optimizer_ms" "ms" (span_ms (fun _ opt _ -> opt));
    M.metric "trace.quantum_ms" "ms" (span_ms (fun _ _ q -> q));
    M.metric "trace.unspanned_ms" "ms" (span_ms (fun lat opt q -> lat -. opt -. q));
    M.metric "trace.overhead_pct" "%" (100.0 *. M.mean overhead);
  ]
