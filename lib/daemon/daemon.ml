module Json = Wj_util.Json
module Scheduler = Wj_service.Scheduler
module Token = Wj_service.Token
module Metrics = Wj_obs.Metrics
module Counter = Wj_obs.Counter
module Snapshot = Wj_obs.Snapshot
module Event = Wj_obs.Event
module Engine = Wj_sql.Engine
module Parser = Wj_sql.Parser
module Lexer = Wj_sql.Lexer
module Binder = Wj_sql.Binder
module Normalize = Wj_sql.Normalize
module Online = Wj_core.Online
module Exact = Wj_exec.Exact
module Value = Wj_storage.Value
module Catalog = Wj_storage.Catalog

(* Per-request progress stream: the scheduler sink (running on the
   scheduler thread, under the daemon mutex) pushes one JSON line per
   quantum; the handler thread pops and writes chunks.  [live] counts
   the request's sessions that have not yet reached a terminal state —
   the handler's completion condition. *)
type stream = {
  s_mu : Mutex.t;
  s_cond : Condition.t;
  chunks : Json.t Queue.t;
  mutable live : int;
  s_submit : float;  (* Unix.gettimeofday at submission *)
  s_target : Wj_stats.Target.t;  (* the CI target of the latency histogram *)
  mutable s_first_report : float;  (* seconds to first report; < 0 = none yet *)
  mutable s_target_pending : int;  (* sessions not yet at the CI target *)
  mutable s_target_at : float;  (* seconds to ±target CI; < 0 = not reached *)
  mutable s_queue_wait : float;  (* max seconds any session spent queued *)
  mutable s_reports : int;  (* progress chunks pushed = quanta observed *)
}

type t = {
  catalog : Catalog.t;
  metrics : Metrics.t;
  sched : Scheduler.t;
  cache : Estimate_cache.t;
  trace_store : Trace_store.t;
  access_log : out_channel option;
  close_log : bool;  (* the channel was opened here, close it on stop *)
  log_mu : Mutex.t;
  mutable log_closed : bool;  (* under [log_mu]: [stop] closed the log file *)
  slow_query_ms : float;
  (* one shared-index thread across every request, as in Engine.serve *)
  shared : (Wj_core.Query.t * Wj_core.Registry.t) option ref;
  (* session id -> stream, item idx, the request recorder's sink (session
     lifecycle events are forwarded into it so the per-request recorder
     sees the same milestones the scheduler's own sink does) *)
  routes : (int, stream * int * Wj_obs.Sink.t) Hashtbl.t;
  mu : Mutex.t;
  work : Condition.t;
  mutable stopping : bool;
  mutable started : bool;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  mutable threads : Thread.t list;
  default_seed : int;
  default_time : float;
  retry_after : int;
  requested_port : int;
  requests : Counter.t;
  rejected : Counter.t;
  errors : Counter.t;
}

(* Latency histograms use log₂-millisecond buckets: bucket 0 is < 1 ms,
   bucket i covers [2^(i-1), 2^i) ms.  24 buckets reach past two hours,
   far beyond any request the daemon would keep alive. *)
let latency_buckets = 24

let ms_bucket ms =
  if ms < 1.0 then 0
  else
    let b = 1 + int_of_float (Float.log2 ms) in
    if b < 0 then 0 else b

(* ---- construction ----------------------------------------------------- *)

let create ?(quantum = 256) ?(max_live = 4) ?(max_queued = 64) ?tenant_quota
    ?cache_capacity ?trace_capacity ?access_log
    ?(slow_query_ms = 0.0) ?(default_seed = 11) ?(default_time = 5.0)
    ?(retry_after = 1) ?(port = 0) catalog =
  let metrics = Metrics.create () in
  let routes = Hashtbl.create 64 in
  (* Request-latency instruments, fed from scheduler lifecycle events:
     admission → start is queue wait; submission → first/target-CI report
     are the user-visible latencies the serve benchmarks track. *)
  let h_queue_wait =
    Metrics.histogram metrics ~buckets:latency_buckets "http.queue_wait_ms"
  in
  let h_first_report =
    Metrics.histogram metrics ~buckets:latency_buckets "http.first_report_ms"
  in
  let h_target_ci =
    Metrics.histogram metrics ~buckets:latency_buckets "http.target_ci_ms"
  in
  let admitted = Hashtbl.create 64 in  (* session id -> admission time *)
  let at_target = Hashtbl.create 64 in  (* session ids at their CI target *)
  let on_event = function
    | Event.Session_admitted { session; _ } ->
      Hashtbl.replace admitted session (Unix.gettimeofday ())
    | Event.Session_started { session } -> (
      match Hashtbl.find_opt admitted session with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove admitted session;
        let wait = Unix.gettimeofday () -. t0 in
        Wj_obs.Histogram.observe h_queue_wait (ms_bucket (wait *. 1000.));
        (match Hashtbl.find_opt routes session with
        | Some (st, _, _) -> if wait > st.s_queue_wait then st.s_queue_wait <- wait
        | None -> ()))
    | Event.Session_report { session; progress; deadline_left } as ev -> (
      match Hashtbl.find_opt routes session with
      | None -> ()
      | Some (st, idx, rsink) ->
        (* The request's recorder subscribes to its own sessions'
           milestones: this is what feeds each session's CI trajectory
           (and so the slow-query convergence fit). *)
        Wj_obs.Sink.emit rsink ev;
        let fields =
          [
            ("type", Json.Str "progress");
            ("item", Json.Int idx);
            ("elapsed", Json.Float progress.Wj_obs.Progress.elapsed);
            ("walks", Json.Int progress.walks);
            ("successes", Json.Int progress.successes);
            ("estimate", Json.Float progress.estimate);
            ("half_width", Json.Float progress.half_width);
          ]
          @
          match deadline_left with
          | None -> []
          | Some d -> [ ("deadline_left", Json.Float d) ]
        in
        let since = Unix.gettimeofday () -. st.s_submit in
        st.s_reports <- st.s_reports + 1;
        if st.s_first_report < 0.0 then begin
          st.s_first_report <- since;
          Wj_obs.Histogram.observe h_first_report (ms_bucket (since *. 1000.))
        end;
        if
          st.s_target_at < 0.0
          && (not (Hashtbl.mem at_target session))
          && Wj_stats.Target.reached st.s_target ~estimate:progress.estimate
               ~half_width:progress.half_width
        then begin
          Hashtbl.replace at_target session ();
          st.s_target_pending <- st.s_target_pending - 1;
          if st.s_target_pending <= 0 then begin
            st.s_target_at <- since;
            Wj_obs.Histogram.observe h_target_ci (ms_bucket (since *. 1000.))
          end
        end;
        Mutex.lock st.s_mu;
        Queue.push (Json.Obj fields) st.chunks;
        Condition.broadcast st.s_cond;
        Mutex.unlock st.s_mu)
    | Event.Session_finished { session; _ } as ev -> (
      Hashtbl.remove admitted session;
      Hashtbl.remove at_target session;
      match Hashtbl.find_opt routes session with
      | None -> ()
      | Some (st, _, rsink) ->
        Wj_obs.Sink.emit rsink ev;
        Hashtbl.remove routes session;
        Mutex.lock st.s_mu;
        st.live <- st.live - 1;
        Condition.broadcast st.s_cond;
        Mutex.unlock st.s_mu)
    | _ -> ()
  in
  let sink = Wj_obs.Sink.make ~on_event ~metrics ~events:`Reports () in
  let sched =
    Scheduler.create ~quantum ~max_live ~max_queued ?tenant_quota ~sink ()
  in
  let access_log_chan, close_log =
    match access_log with
    | None -> (None, false)
    | Some "-" -> (Some stderr, false)
    | Some path ->
      (Some (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path), true)
  in
  {
    catalog;
    metrics;
    sched;
    cache = Estimate_cache.create ?capacity:cache_capacity metrics;
    trace_store = Trace_store.create ?capacity:trace_capacity ();
    access_log = access_log_chan;
    close_log;
    log_mu = Mutex.create ();
    log_closed = false;
    slow_query_ms;
    shared = ref None;
    routes;
    mu = Mutex.create ();
    work = Condition.create ();
    stopping = false;
    started = false;
    listen_fd = None;
    bound_port = port;
    threads = [];
    default_seed;
    default_time;
    retry_after;
    requested_port = port;
    requests = Metrics.counter metrics "http.requests";
    rejected = Metrics.counter metrics "http.rejected";
    errors = Metrics.counter metrics "http.errors";
  }

let port t = t.bound_port
let url t = Printf.sprintf "http://127.0.0.1:%d" t.bound_port

(* ---- request decoding ------------------------------------------------- *)

exception Bad_param of string

type query_req = {
  sql : string;
  tenant : string option;
  deadline : float option;
  want_stream : bool;
  use_cache : bool;
  seed : int;
  max_walks : int option;
  time : float option;
  target_pct : float option;
}

(* Accessors accepting both native JSON types and their string spellings,
   so [GET /query?...] (where every value arrives as a string) and
   [POST /query] share one decoding path. *)
let req_str j name =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_str v with Some s -> Some s | None -> raise (Bad_param name))

let req_int j name =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_int v with
    | Some n -> Some n
    | None -> (
      match Option.bind (Json.to_str v) int_of_string_opt with
      | Some n -> Some n
      | None -> raise (Bad_param name)))

let req_float j name =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_float v with
    | Some f -> Some f
    | None -> (
      match Option.bind (Json.to_str v) float_of_string_opt with
      | Some f -> Some f
      | None -> raise (Bad_param name)))

let req_bool j name =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Some b
    | None -> (
      match Option.bind (Json.to_str v) bool_of_string_opt with
      | Some b -> Some b
      | None -> raise (Bad_param name)))

let decode_query_req t j =
  let sql =
    match req_str j "sql" with
    | Some s when String.trim s <> "" -> s
    | _ -> raise (Bad_param "sql")
  in
  {
    sql;
    tenant = req_str j "tenant";
    deadline = req_float j "deadline";
    want_stream = Option.value (req_bool j "stream") ~default:true;
    use_cache = Option.value (req_bool j "cache") ~default:true;
    seed = Option.value (req_int j "seed") ~default:t.default_seed;
    max_walks = req_int j "max_walks";
    time = req_float j "time";
    target_pct = req_float j "target_pct";
  }

(* The cache key: normalized statement text extended with every
   execution override that changes the experiment.  The catalog epoch is
   deliberately NOT part of the key — entries carry the epoch they were
   computed under and lookups at a newer epoch evict them (staleness,
   not a different key). *)
let cache_key req norm =
  Printf.sprintf "%s#seed=%d;walks=%s;time=%s;target=%s" norm req.seed
    (match req.max_walks with Some n -> string_of_int n | None -> "-")
    (match req.time with Some f -> Printf.sprintf "%.17g" f | None -> "-")
    (match req.target_pct with Some f -> Printf.sprintf "%.17g" f | None -> "-")

(* ---- result rendering ------------------------------------------------- *)

type pending_item =
  | D_session of Scheduler.session
  | D_exact of Engine.item_outcome

let progress_fields (p : Wj_obs.Progress.t) =
  [
    ("estimate", Json.Float p.estimate);
    ("half_width", Json.Float p.half_width);
    ("walks", Json.Int p.walks);
    ("successes", Json.Int p.successes);
    ("elapsed", Json.Float p.elapsed);
  ]

let item_json (item, pending) =
  let label = ("label", Json.Str (Engine.item_label item)) in
  match pending with
  | D_exact (Engine.Exact_scalar e) ->
    Json.Obj [ label; ("kind", Json.Str "exact"); ("value", Json.Float e.Exact.value) ]
  | D_exact (Engine.Exact_groups gs) ->
    Json.Obj
      [
        label;
        ("kind", Json.Str "exact_groups");
        ( "groups",
          Json.List
            (List.map
               (fun (key, (e : Exact.result)) ->
                 Json.Obj
                   [
                     ("key", Json.Str (Value.to_display key));
                     ("value", Json.Float e.Exact.value);
                   ])
               gs) );
      ]
  | D_exact (Engine.Online_scalar _ | Engine.Online_groups _) ->
    (* Online outcomes never arrive via D_exact. *)
    Json.Obj [ label; ("kind", Json.Str "online") ]
  | D_session s ->
    let state = ("state", Json.Str (Scheduler.state_name (Scheduler.state s))) in
    let reason =
      ( "reason",
        match Scheduler.stop_reason s with
        | Some r -> Json.Str (Event.stop_reason_name r)
        | None -> Json.Null )
    in
    (match Scheduler.result s with
    | Some (Wj_core.Session.Scalar o) ->
      Json.Obj
        ([ label; ("kind", Json.Str "online"); state; reason ]
        @ progress_fields o.Online.final
        @ [
            ("plan", Json.Str o.Online.plan_description);
            ("optimizer_walks", Json.Int o.Online.optimizer_walks);
          ])
    | Some (Wj_core.Session.Groups g) ->
      Json.Obj
        [
          label;
          ("kind", Json.Str "group_by");
          state;
          reason;
          ( "groups",
            Json.List
              (List.map
                 (fun (key, (r : Online.report)) ->
                   Json.Obj
                     (("key", Json.Str (Value.to_display key))
                     :: progress_fields r))
                 g.Online.groups) );
        ]
    | None ->
      (* Retired before ever running (cancelled/expired while queued). *)
      Json.Obj [ label; ("kind", Json.Str "online"); state; reason ])

let overall_status pendings =
  let states =
    List.filter_map
      (fun (_, p) -> match p with D_session s -> Some (Scheduler.state s) | D_exact _ -> None)
      pendings
  in
  if List.exists (fun s -> s = Scheduler.Cancelled) states then "cancelled"
  else if List.exists (fun s -> s = Scheduler.Deadline_exceeded) states then
    "deadline_exceeded"
  else "done"

let final_json ~status ~cached items =
  Json.Obj
    [
      ("type", Json.Str "final");
      ("status", Json.Str status);
      ("cached", Json.Bool cached);
      ("items", items);
    ]

let error_body code msg =
  Json.to_string
    (Json.Obj
       [ ("type", Json.Str "error"); ("code", Json.Str code); ("message", Json.Str msg) ])

(* ---- structured access log -------------------------------------------- *)

(* Handler threads outlive [stop], which closes a log file the daemon
   opened: a line that arrives after that is dropped, never written to a
   closed channel.  The caller's channel (stderr) stays open and keeps
   taking lines. *)
let log_request t fields =
  match t.access_log with
  | None -> ()
  | Some oc ->
    let line = Json.to_string (Json.Obj fields) in
    Mutex.protect t.log_mu (fun () ->
        if not t.log_closed then begin
          output_string oc line;
          output_char oc '\n';
          flush oc
        end)

(* Failed requests log a short line: no statement was executed, so the
   execution fields would all be vacuous. *)
let log_failure t ~trace_id ~outcome code =
  log_request t
    [
      ("ts", Json.Float (Unix.gettimeofday ()));
      ("trace", Json.Str trace_id);
      ("outcome", Json.Str outcome);
      ("code", Json.Str code);
    ]

let stmt_hash norm = Digest.to_hex (Digest.string norm)

(* The request recorder files CI samples per session scope
   ("session<id>."); a multi-aggregate statement has several.  The
   slow-query line reports the best-evidenced fit — the scope with the
   most CI samples behind it. *)
let fit_json recorder =
  let best =
    List.fold_left
      (fun acc scope ->
        match
          Wj_obs.Convergence.fit (Wj_obs.Recorder.convergence recorder ~scope)
        with
        | Some f
          when (match acc with
               | None -> true
               | Some prev -> f.Wj_obs.Convergence.points > prev.Wj_obs.Convergence.points)
          -> Some f
        | _ -> acc)
      None
      (Wj_obs.Recorder.convergence_scopes recorder)
  in
  match best with
  | None -> Json.Null
  | Some f ->
    Json.Obj
      [
        ("c", Json.Float f.Wj_obs.Convergence.c);
        ("exponent", Json.Float f.exponent);
        ("points", Json.Int f.points);
      ]

(* ---- /query ----------------------------------------------------------- *)

let submit_fresh t req ~traced statement key epoch =
  let bound = Binder.bind t.catalog statement in
  let cfg =
    Wj_core.Run_config.make ~seed:req.seed
      ~max_time:(Option.value req.time ~default:t.default_time)
      ?max_walks:req.max_walks
      ?target:
        (Option.map (fun pct -> Wj_stats.Target.relative (pct /. 100.)) req.target_pct)
      ()
  in
  let cfg = Engine.apply_clauses cfg statement bound in
  (* Every request carries a flight recorder: reports-only convergence
     tracking is cheap and powers the slow-query log.  Span tracing —
     which does touch walker fast paths — is opt-in per request, keyed
     on the client sending an [X-WJ-Trace] header.  The recorder is a
     pure observer either way: it never touches a PRNG stream, so the
     estimates stay bit-for-bit those of an unobserved run. *)
  let recorder = Wj_obs.Recorder.create ~tracing:traced () in
  let cfg = Wj_core.Run_config.with_recorder cfg recorder in
  let registries = Engine.build_registries t.shared bound.Binder.queries in
  let token = Token.create () in
  let stream =
    {
      s_mu = Mutex.create ();
      s_cond = Condition.create ();
      chunks = Queue.create ();
      live = 0;
      s_submit = Unix.gettimeofday ();
      s_target =
        Wj_stats.Target.relative
          (match req.target_pct with Some p -> p /. 100. | None -> 0.01);
      s_first_report = -1.0;
      s_target_pending = 0;
      s_target_at = -1.0;
      s_queue_wait = 0.0;
      s_reports = 0;
    }
  in
  let submitted = ref [] in
  let pendings =
    try
      List.mapi
        (fun idx ((item, q), registry) ->
          let p =
            if bound.Binder.online then begin
              let s =
                Scheduler.submit t.sched
                  ~label:(Engine.item_label item)
                  ?deadline:req.deadline ~token ?tenant:req.tenant cfg q registry
              in
              submitted := s :: !submitted;
              stream.live <- stream.live + 1;
              stream.s_target_pending <- stream.s_target_pending + 1;
              Hashtbl.replace t.routes (Scheduler.id s)
                (stream, idx, Wj_obs.Recorder.sink recorder);
              D_session s
            end
            else D_exact (Engine.exact_item q registry)
          in
          (item, p))
        (List.combine bound.Binder.queries registries)
    with Scheduler.Rejected _ as e ->
      (* A multi-aggregate statement admits one session per aggregate;
         roll the already-admitted ones back before reporting 429. *)
      List.iter
        (fun s ->
          Hashtbl.remove t.routes (Scheduler.id s);
          Scheduler.cancel s)
        !submitted;
      raise e
  in
  Condition.broadcast t.work;
  `Submitted (key, epoch, token, stream, pendings, recorder)

let submit_statement t req ~traced =
  let statement = Parser.parse req.sql in
  let norm = Normalize.statement ~catalog:t.catalog statement in
  let key = cache_key req norm in
  let epoch = Catalog.epoch t.catalog in
  let cached =
    if req.use_cache then Estimate_cache.find t.cache ~key ~epoch else None
  in
  match cached with
  | Some entry -> `Cached (norm, entry.Estimate_cache.results)
  | None when t.stopping ->
    (* Nothing ticks the scheduler once stop began: a session submitted
       now would never finish. *)
    `Stopping
  | None -> (
    match submit_fresh t req ~traced statement key epoch with
    | `Submitted (key, epoch, token, stream, pendings, recorder) ->
      `Submitted (norm, key, epoch, token, stream, pendings, recorder))

(* Wait for every session of the request, writing progress chunks as
   they arrive (when [writer] is given).  Returns true when the client
   disconnected mid-stream. *)
let pump_stream stream token ~writer =
  let disconnected = ref false in
  let rec loop () =
    Mutex.lock stream.s_mu;
    while Queue.is_empty stream.chunks && stream.live > 0 do
      Condition.wait stream.s_cond stream.s_mu
    done;
    let next = if Queue.is_empty stream.chunks then None else Some (Queue.pop stream.chunks) in
    Mutex.unlock stream.s_mu;
    match next with
    | Some line ->
      (if not !disconnected then
         match writer with
         | None -> ()
         | Some write -> (
           try write (Json.to_string line ^ "\n")
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             (* Client went away: cancel the whole request.  The
                scheduler retires its sessions before their next
                quantum. *)
             disconnected := true;
             Token.cancel token));
      loop ()
    | None ->
      let done_ =
        Mutex.lock stream.s_mu;
        let d = stream.live = 0 && Queue.is_empty stream.chunks in
        Mutex.unlock stream.s_mu;
        d
      in
      if done_ then !disconnected else loop ()
  in
  loop ()

(* Walks performed and the worst final CI half-width across the
   request's online items — the execution summary of an access-log
   line. *)
let pendings_totals pendings =
  let walks = ref 0 and hw = ref None in
  let note (p : Wj_obs.Progress.t) =
    walks := !walks + p.walks;
    hw :=
      Some
        (match !hw with
        | None -> p.half_width
        | Some h -> Float.max h p.half_width)
  in
  List.iter
    (fun (_, p) ->
      match p with
      | D_session s -> (
        match Scheduler.result s with
        | Some (Wj_core.Session.Scalar o) -> note o.Online.final
        | Some (Wj_core.Session.Groups g) ->
          List.iter (fun (_, r) -> note r) g.Online.groups
        | None -> ())
      | D_exact _ -> ())
    pendings;
  (!walks, !hw)

(* An exact-only statement's cost: the rows its enumerations visited.
   Group results share one enumeration, so a grouped item counts it once.
   [None] when a session ran — walks are always worth caching. *)
let exact_cost pendings =
  let is_session (_, p) = match p with D_session _ -> true | D_exact _ -> false in
  if List.exists is_session pendings then None
  else
    Some
      (List.fold_left
         (fun n (_, p) ->
           match p with
           | D_exact (Engine.Exact_scalar e | Engine.Exact_groups ((_, e) :: _)) ->
             n + e.Exact.rows_visited
           | _ -> n)
         0 pendings)

let handle_query t fd ~trace_id ~traced req =
  let t0 = Unix.gettimeofday () in
  let trace_hdr = [ (Http.trace_header, trace_id) ] in
  (* One structured line per completed request: who, what (by normalized
     statement hash), how it went, and what it cost. *)
  let log ~outcome ~cache ?norm ?(queue_wait = 0.0) ?(quanta = 0) ?(walks = 0)
      ?half_width ?recorder () =
    if t.access_log <> None then begin
      let elapsed = Unix.gettimeofday () -. t0 in
      let slow = t.slow_query_ms > 0.0 && elapsed *. 1000. >= t.slow_query_ms in
      log_request t
        ([
           ("ts", Json.Float t0);
           ("trace", Json.Str trace_id);
           ( "tenant",
             match req.tenant with Some s -> Json.Str s | None -> Json.Null );
           ( "stmt",
             match norm with Some n -> Json.Str (stmt_hash n) | None -> Json.Null );
           ("outcome", Json.Str outcome);
           ("cache", Json.Str cache);
           ("elapsed_ms", Json.Float (elapsed *. 1000.));
           ("queue_wait_ms", Json.Float (queue_wait *. 1000.));
           ("quanta", Json.Int quanta);
           ("walks", Json.Int walks);
           ( "half_width",
             match half_width with Some h -> Json.Float h | None -> Json.Null );
         ]
        @
        if slow then
          (* A straggler dumps its convergence fit: is the CI shrinking
             like 1/√k at all, and with what constant? *)
          [
            ("slow", Json.Bool true);
            ("fit", match recorder with Some r -> fit_json r | None -> Json.Null);
          ]
        else [])
    end
  in
  match Mutex.protect t.mu (fun () -> submit_statement t req ~traced) with
  | `Cached (norm, results) ->
    log ~outcome:"done" ~cache:"hit" ~norm ();
    Http.respond fd ~status:200 ~headers:trace_hdr
      (Json.to_string (final_json ~status:"done" ~cached:true results) ^ "\n")
  | `Stopping ->
    Counter.incr t.rejected;
    log_failure t ~trace_id ~outcome:"rejected" "stopping";
    Http.respond fd ~status:503 ~headers:trace_hdr
      (error_body "stopping" "the daemon is shutting down" ^ "\n")
  | `Submitted (norm, key, epoch, token, stream, pendings, recorder) ->
    let streaming = req.want_stream && stream.live > 0 in
    if streaming then Http.start_chunked fd ~status:200 ~headers:trace_hdr ();
    let disconnected =
      pump_stream stream token
        ~writer:(if streaming then Some (Http.write_chunk fd) else None)
    in
    let final, status, disposition =
      Mutex.protect t.mu (fun () ->
          let status = overall_status pendings in
          let items = Json.List (List.map item_json pendings) in
          let disposition = ref (if req.use_cache then "miss" else "bypass") in
          (* Record the verdict for repeat queries — only a fully
             completed run, and under the epoch read at submission so a
             concurrent data change invalidates it.  Exact-only answers
             carry their rows visited so the cache's admission policy
             can skip ones cheaper to recompute than to cache. *)
          if req.use_cache && status = "done" && stream.live = 0 then
            disposition :=
              if
                Estimate_cache.store t.cache ~key ?cost:(exact_cost pendings)
                  { Estimate_cache.results = items; epoch }
              then "stored"
              else "skipped_cheap";
          if traced then
            Trace_store.put t.trace_store ~id:trace_id
              (Wj_obs.Recorder.to_json recorder);
          (final_json ~status ~cached:false items, status, !disposition))
    in
    (* Log before the final line goes out: a client that has read its
       answer finds its log line, even if the daemon stops right after. *)
    let walks, half_width = pendings_totals pendings in
    log
      ~outcome:(if disconnected then "disconnected" else status)
      ~cache:disposition ~norm ~queue_wait:stream.s_queue_wait
      ~quanta:stream.s_reports ~walks ?half_width ~recorder ();
    if not disconnected then
      if streaming then begin
        try
          Http.write_chunk fd (Json.to_string final ^ "\n");
          Http.finish_chunked fd
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      end
      else Http.respond fd ~status:200 ~headers:trace_hdr (Json.to_string final ^ "\n")

(* ---- other endpoints -------------------------------------------------- *)

let handle_health t fd =
  Http.respond fd ~status:200
    (Json.to_string
       (Json.Obj [ ("status", Json.Str "ok"); ("port", Json.Int t.bound_port) ])
    ^ "\n")

(* Point-in-time runtime gauges, refreshed when a scrape asks for them
   ([GET /metrics] and [GET /stats]) rather than maintained continuously
   — the scrape is the only reader, and gauge writes on every scheduler
   transition would be pure overhead between scrapes. *)
let refresh_runtime_gauges t =
  let g name v = Wj_obs.Gauge.set (Metrics.gauge t.metrics name) v in
  let st = Gc.quick_stat () in
  g "gc.heap_words" (float_of_int st.Gc.heap_words);
  g "gc.minor_collections" (float_of_int st.Gc.minor_collections);
  g "gc.major_collections" (float_of_int st.Gc.major_collections);
  g "gc.compactions" (float_of_int st.Gc.compactions);
  g "sched.live" (float_of_int (Scheduler.live_count t.sched));
  g "sched.queued" (float_of_int (Scheduler.queued_count t.sched));
  g "cache.entries" (float_of_int (Estimate_cache.length t.cache));
  g "trace.retained" (float_of_int (Trace_store.length t.trace_store));
  List.iter
    (fun (name, n) ->
      g (Printf.sprintf "tenant.%s.in_flight" name) (float_of_int n))
    (Scheduler.tenant_in_flight t.sched)

let handle_stats t fd =
  let body =
    Mutex.protect t.mu (fun () ->
        refresh_runtime_gauges t;
        Printf.sprintf
          {|{"in_flight":%d,"live":%d,"queued":%d,"cache_entries":%d,"traces":%d,"epoch":%d,"metrics":%s}|}
          (Scheduler.in_flight t.sched ())
          (Scheduler.live_count t.sched)
          (Scheduler.queued_count t.sched)
          (Estimate_cache.length t.cache)
          (Trace_store.length t.trace_store)
          (Catalog.epoch t.catalog)
          (Snapshot.to_json (Snapshot.of_metrics t.metrics)))
  in
  Http.respond fd ~status:200 (body ^ "\n")

let handle_metrics t fd =
  let body =
    Mutex.protect t.mu (fun () ->
        refresh_runtime_gauges t;
        Wj_obs.Prom.render t.metrics)
  in
  Http.respond fd ~status:200 ~content_type:Wj_obs.Prom.content_type body

let handle_trace t fd id =
  match Mutex.protect t.mu (fun () -> Trace_store.find t.trace_store id) with
  | Some doc -> Http.respond fd ~status:200 doc
  | None ->
    Http.respond fd ~status:404
      (error_body "not_found" ("no retained trace: " ^ id) ^ "\n")

let signal_stop t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  match t.listen_fd with
  | Some fd ->
    t.listen_fd <- None;
    (* [shutdown] (unlike [close]) wakes a thread blocked in [accept]
       on this socket, so the accept loop exits promptly. *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* ---- dispatch --------------------------------------------------------- *)

let handle t fd =
  Counter.incr t.requests;
  match Http.read_request fd with
  | None -> ()
  | Some req -> (
    let body_json () =
      match req.Http.meth with
      | "GET" -> Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) req.Http.query)
      | _ -> if req.Http.body = "" then Json.Obj [] else Json.parse req.Http.body
    in
    match (req.Http.meth, req.Http.path) with
    | ("GET" | "POST"), "/query" -> (
      let trace_id = Http.request_trace_id req in
      let traced = Http.header req Http.trace_header <> None in
      let trace_hdr = (Http.trace_header, trace_id) in
      match decode_query_req t (body_json ()) with
      | qreq -> (
        try handle_query t fd ~trace_id ~traced qreq with
        | Scheduler.Rejected r ->
          Counter.incr t.rejected;
          log_failure t ~trace_id ~outcome:"rejected" "rejected";
          Http.respond fd ~status:429
            ~headers:[ ("retry-after", string_of_int t.retry_after); trace_hdr ]
            (error_body "rejected" (Scheduler.reject_description r) ^ "\n")
        | Lexer.Lex_error (msg, off) ->
          Counter.incr t.errors;
          log_failure t ~trace_id ~outcome:"error" "lex";
          Http.respond fd ~status:400 ~headers:[ trace_hdr ]
            (error_body "lex" (Printf.sprintf "%s (offset %d)" msg off) ^ "\n")
        | Parser.Parse_error msg ->
          Counter.incr t.errors;
          log_failure t ~trace_id ~outcome:"error" "parse";
          Http.respond fd ~status:400 ~headers:[ trace_hdr ]
            (error_body "parse" msg ^ "\n")
        | Binder.Bind_error msg ->
          Counter.incr t.errors;
          log_failure t ~trace_id ~outcome:"error" "bind";
          Http.respond fd ~status:400 ~headers:[ trace_hdr ]
            (error_body "bind" msg ^ "\n"))
      | exception Bad_param name ->
        Counter.incr t.errors;
        log_failure t ~trace_id ~outcome:"error" "bad_request";
        Http.respond fd ~status:400 ~headers:[ trace_hdr ]
          (error_body "bad_request" ("missing or malformed parameter: " ^ name) ^ "\n")
      | exception Json.Parse_error msg ->
        Counter.incr t.errors;
        log_failure t ~trace_id ~outcome:"error" "bad_request";
        Http.respond fd ~status:400 ~headers:[ trace_hdr ]
          (error_body "bad_request" ("malformed JSON body: " ^ msg) ^ "\n"))
    | "GET", "/health" -> handle_health t fd
    | "GET", "/stats" -> handle_stats t fd
    | "GET", "/metrics" -> handle_metrics t fd
    | "GET", path when String.starts_with ~prefix:"/trace/" path ->
      handle_trace t fd (String.sub path 7 (String.length path - 7))
    | "POST", "/shutdown" ->
      Http.respond fd ~status:200
        (Json.to_string (Json.Obj [ ("status", Json.Str "stopping") ]) ^ "\n");
      signal_stop t
    | _, ("/query" | "/health" | "/stats" | "/metrics" | "/shutdown") ->
      Http.respond fd ~status:405 (error_body "method_not_allowed" req.Http.meth ^ "\n")
    | _, path when String.starts_with ~prefix:"/trace/" path ->
      Http.respond fd ~status:405 (error_body "method_not_allowed" req.Http.meth ^ "\n")
    | _ ->
      Http.respond fd ~status:404 (error_body "not_found" req.Http.path ^ "\n"))
  | exception Http.Bad_request msg ->
    Counter.incr t.errors;
    (try Http.respond fd ~status:400 (error_body "bad_request" msg ^ "\n")
     with Unix.Unix_error _ -> ())

let handler_thread t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try handle t fd with Unix.Unix_error _ -> ())

(* ---- threads ---------------------------------------------------------- *)

let scheduler_loop t =
  Mutex.lock t.mu;
  let ticks = ref 0 in
  while not t.stopping do
    if Scheduler.tick t.sched then begin
      incr ticks;
      (* Terminal sessions accumulate in the introspection list; a
         long-running daemon trims them periodically. *)
      if !ticks land 1023 = 0 then Scheduler.prune t.sched;
      (* Release the mutex between quanta so handlers can submit. *)
      Mutex.unlock t.mu;
      Thread.yield ();
      Mutex.lock t.mu
    end
    else Condition.wait t.work t.mu
  done;
  Mutex.unlock t.mu

let accept_loop t fd =
  let rec go () =
    if not t.stopping then
      match Unix.accept fd with
      | client, _ ->
        ignore (Thread.create (fun () -> handler_thread t client) ());
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()  (* listening socket closed: stopping *)
  in
  go ()

let start t =
  if t.started then invalid_arg "Daemon.start: already started";
  t.started <- true;
  (* A streamed response outliving its client is routine; without this
     the first EPIPE kills the process instead of raising. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.requested_port));
  Unix.listen fd 128;
  (match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> t.bound_port <- p
  | _ -> ());
  t.listen_fd <- Some fd;
  t.threads <-
    [
      Thread.create (fun () -> scheduler_loop t) ();
      Thread.create (fun () -> accept_loop t fd) ();
    ]

let wait t = List.iter Thread.join t.threads

let stop t =
  signal_stop t;
  List.iter Thread.join t.threads;
  t.threads <- [];
  (* Nothing ticks the scheduler any more: retire what is in flight as
     cancelled, so each streaming handler sends its final line and ends. *)
  Mutex.protect t.mu (fun () -> Scheduler.cancel_all t.sched);
  match t.access_log with
  | Some oc when t.close_log ->
    Mutex.protect t.log_mu (fun () ->
        if not t.log_closed then begin
          t.log_closed <- true;
          close_out_noerr oc
        end)
  | Some oc -> Mutex.protect t.log_mu (fun () -> try flush oc with Sys_error _ -> ())
  | None -> ()
