module Timer = Wj_util.Timer
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event
module Progress = Wj_obs.Progress
module Metrics = Wj_obs.Metrics
module Run_config = Wj_core.Run_config
module Driver = Wj_core.Engine.Driver
module Session = Wj_core.Session

type state =
  | Queued
  | Running
  | Reporting
  | Done
  | Cancelled
  | Deadline_exceeded
  | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Reporting -> "reporting"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Deadline_exceeded -> "deadline_exceeded"
  | Failed _ -> "failed"

let is_terminal = function
  | Done | Cancelled | Deadline_exceeded | Failed _ -> true
  | Queued | Running | Reporting -> false

type policy = Round_robin | Widest_ci

let policy_name = function Round_robin -> "round_robin" | Widest_ci -> "widest_ci"

type reject =
  | Queue_full of { queued : int; max_queued : int }
  | Tenant_quota of { tenant : string; in_flight : int; quota : int }

exception Rejected of reject

let reject_description = function
  | Queue_full { queued; max_queued } ->
    Printf.sprintf "admission queue full (%d queued, cap %d)" queued max_queued
  | Tenant_quota { tenant; in_flight; quota } ->
    Printf.sprintf "tenant %s over quota (%d in flight, quota %d)" tenant
      in_flight quota

type entry = {
  id : int;
  label : string;
  token : Token.t;
  tenant : string option;  (* admission-quota accounting bucket *)
  deadline : float option;  (* absolute seconds on the scheduler clock *)
  pin : int option;  (* fixed shard under a multi-domain drain *)
  start : t -> Session.handle;
      (* deferred: plan selection happens on admission.  The argument is
         the scheduler actually hosting the entry — the submitting one,
         or the per-domain shard it was pinned to — whose sink scopes the
         session's metrics. *)
  trace : Wj_obs.Trace.t option;
      (* the session's own span buffer (a request-scoped recorder's,
         under the daemon) — quantum spans land here as well as in the
         scheduler sink's trace, so each request's trace carries its own
         scheduling *)
  mutable state : state;
  mutable handle : Session.handle option;  (* set once started *)
  mutable result : Session.outcome option;  (* set once a started session stops *)
  mutable quanta : int;  (* quanta actually granted *)
  mutable reason : Driver.stop_reason option;  (* why the driver stopped *)
}

and t = {
  quantum : int;
  max_live : int;
  policy : policy;
  domains : int;
  max_queued : int option;  (* admission queue cap; None = unbounded *)
  tenant_quota : int option;  (* per-tenant in-flight cap; None = unbounded *)
  sink : Sink.t;
  clock : Timer.t;
  is_shard : bool;
      (* per-domain sub-schedulers skip tenant accounting: the table
         belongs to the submitting scheduler and is not domain-safe *)
  tenant_counts : (string, int) Hashtbl.t;  (* non-terminal sessions per tenant *)
  mutable next_id : int;
  queue : entry Queue.t;  (* admission FIFO *)
  mutable live : entry list;  (* Running entries; head = next round-robin grant *)
  mutable all : entry list;  (* every submission, reverse admission order *)
}

(* The submitter's handle is the entry itself, whose [result] is filled
   once the session stops. *)
type session = entry

let create ?(quantum = 256) ?(max_live = 4) ?(policy = Round_robin)
    ?(domains = 1) ?max_queued ?tenant_quota ?(sink = Sink.noop) ?clock () =
  if quantum < 1 then invalid_arg "Scheduler.create: quantum < 1";
  if max_live < 1 then invalid_arg "Scheduler.create: max_live < 1";
  if domains < 1 then invalid_arg "Scheduler.create: domains < 1";
  (match max_queued with
  | Some n when n < 0 -> invalid_arg "Scheduler.create: max_queued < 0"
  | _ -> ());
  (match tenant_quota with
  | Some n when n < 1 -> invalid_arg "Scheduler.create: tenant_quota < 1"
  | _ -> ());
  let clock = match clock with Some c -> c | None -> Timer.wall () in
  {
    quantum;
    max_live;
    policy;
    domains;
    max_queued;
    tenant_quota;
    sink;
    clock;
    is_shard = false;
    tenant_counts = Hashtbl.create 8;
    next_id = 0;
    queue = Queue.create ();
    live = [];
    all = [];
  }

(* ---- Tenant accounting ------------------------------------------------ *)

(* [tenant_counts] tracks non-terminal sessions per tenant on the
   submitting scheduler only: shard sub-schedulers never touch it (the
   Hashtbl is not domain-safe), so after a sharded drain the counts are
   recomputed at the join barrier instead. *)

let in_flight t ?tenant () =
  match tenant with
  | Some name -> ( match Hashtbl.find_opt t.tenant_counts name with Some n -> n | None -> 0)
  | None -> Queue.length t.queue + List.length t.live

let tenant_counter t name suffix =
  Option.map
    (fun m -> Metrics.counter (Metrics.scoped m ("tenant." ^ name)) suffix)
    (Sink.metrics t.sink)

let bump_tenant_counter t name suffix =
  match tenant_counter t name suffix with
  | Some c -> Wj_obs.Counter.incr c
  | None -> ()

let account_submit t e =
  match e.tenant with
  | None -> ()
  | Some name ->
    Hashtbl.replace t.tenant_counts name (1 + in_flight t ~tenant:name ());
    bump_tenant_counter t name "submitted"

let account_finish t e =
  if not t.is_shard then
    match e.tenant with
    | None -> ()
    | Some name ->
      Hashtbl.replace t.tenant_counts name (max 0 (in_flight t ~tenant:name () - 1));
      bump_tenant_counter t name "finished"

(* Recompute tenant counts from entry states — the post-sharded-drain
   repair (everything terminal at that point, so counts drop to what the
   live/queued sets say, normally zero). *)
let recount_tenants t =
  Hashtbl.reset t.tenant_counts;
  let count e =
    if not (is_terminal e.state) then
      match e.tenant with
      | None -> ()
      | Some name ->
        Hashtbl.replace t.tenant_counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.tenant_counts name))
  in
  List.iter count t.all

let admission t ?tenant () =
  let queued = Queue.length t.queue in
  (* Total in-flight capacity is [max_live + max_queued]: queued
     sessions not yet promoted into free live slots still count against
     it (the promotion only happens at the next tick). *)
  match t.max_queued with
  | Some cap when queued + List.length t.live >= t.max_live + cap ->
    Some (Queue_full { queued; max_queued = cap })
  | _ -> (
    match (tenant, t.tenant_quota) with
    | Some name, Some quota ->
      let n = in_flight t ~tenant:name () in
      if n >= quota then Some (Tenant_quota { tenant = name; in_flight = n; quota })
      else None
    | _ -> None)

(* The scheduler only produces milestone events (session lifecycle,
   policy picks), so a reports-only subscriber — the flight recorder —
   sees all of them. *)
let emit t ev = if Sink.wants_reports t.sink then Sink.emit t.sink ev

let deadline_left t e = Option.map (fun d -> d -. Timer.elapsed t.clock) e.deadline

(* Per-session progress gauges under the scheduler registry's
   "session<id>." scope: cheap scalar state that snapshots and the
   recorder's time series pick up without any event plumbing. *)
let publish_progress t e (p : Progress.t) =
  match Sink.metrics t.sink with
  | None -> ()
  | Some m ->
    let scoped = Metrics.scoped m ("session" ^ string_of_int e.id) in
    Wj_obs.Gauge.set (Metrics.gauge scoped "progress.half_width") p.Progress.half_width;
    Wj_obs.Gauge.set (Metrics.gauge scoped "progress.estimate") p.Progress.estimate;
    Wj_obs.Gauge.set
      (Metrics.gauge scoped "progress.walks")
      (float_of_int p.Progress.walks)

(* Per-session observability: the submitter's own sink, teed with a
   metrics-only view of the scheduler's registry scoped under
   "session<id>." — so one shared registry accumulates per-session
   families without the drivers knowing.  tee's left-metrics-wins rule
   means a submitter who brought their own registry keeps it. *)
let session_sink t id user_sink =
  match Sink.metrics t.sink with
  | None -> user_sink
  | Some m ->
    Sink.tee user_sink (Sink.of_metrics (Metrics.scoped m ("session" ^ string_of_int id)))

let expired t e =
  match e.deadline with None -> false | Some d -> Timer.elapsed t.clock >= d

let terminal_of_reason : Driver.stop_reason -> state = function
  | Driver.Cancelled -> Cancelled
  | Target_reached | Time_up | Walk_budget_exhausted -> Done

(* An entry retired with no report to emit and no result to fill: a
   queued one that will never run, or one whose start or quantum raised. *)
let finalize_unstarted t e term =
  e.state <- term;
  account_finish t e;
  emit t
    (Event.Session_finished { session = e.id; outcome = state_name term; reason = None })

(* A started entry whose driver has resolved (or been interrupted): pass
   through Reporting — final progress report, result fill — then settle.
   [reason] is the driver-level stop reason, surfaced in the
   [Session_finished] event and kept for {!sessions}. *)
let finalize_started t e term ~reason =
  e.state <- Reporting;
  e.reason <- reason;
  (match e.handle with
  | Some h -> (
    e.result <- Some (h.Session.outcome ());
    match h.Session.progress () with
    | Some p ->
      publish_progress t e p;
      if Sink.wants_reports t.sink then
        emit t
          (Event.Session_report
             { session = e.id; progress = p; deadline_left = deadline_left t e })
    | None -> ())
  | None -> ());
  e.state <- term;
  account_finish t e;
  emit t
    (Event.Session_finished
       {
         session = e.id;
         outcome = state_name term;
         reason = Option.map Event.stop_reason_name reason;
       });
  t.live <- List.filter (fun x -> x != e) t.live

(* The exception ends this session only: whatever state it left its
   driver in, the scheduler and every other session keep going. *)
let fail t e exn =
  (match Sink.metrics t.sink with
  | Some m -> Wj_obs.Counter.incr (Metrics.counter m "sched.failed")
  | None -> ());
  t.live <- List.filter (fun x -> x != e) t.live;
  finalize_unstarted t e (Failed (Printexc.to_string exn))

let begin_entry t e =
  match e.start t with
  | h ->
    e.state <- Running;
    e.handle <- Some h;
    t.live <- t.live @ [ e ];
    emit t (Event.Session_started { session = e.id })
  | exception exn -> fail t e exn

(* One admission pass: walk the FIFO in order, retiring queued entries
   that were cancelled or whose deadline passed before they ever ran, and
   starting entries while capacity allows.  Scanning in order keeps
   admission FIFO: capacity applies to everyone equally. *)
let admit t =
  let remaining = Queue.create () in
  Queue.iter
    (fun e ->
      if Token.cancelled e.token then finalize_unstarted t e Cancelled
      else if expired t e then finalize_unstarted t e Deadline_exceeded
      else if List.length t.live < t.max_live then begin_entry t e
      else Queue.push e remaining)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer remaining t.queue

let width_of e =
  match e.handle with
  | None -> infinity
  | Some h -> (
    match h.Session.progress () with
    | Some p -> p.Progress.half_width
    | None -> infinity)

(* Pick the session to grant the next quantum to.  Round_robin rotates
   the live list (head runs, then moves to the back); Widest_ci picks the
   widest current confidence interval, breaking ties — including the
   common all-infinite start — by fewest quanta granted, then lowest id,
   which keeps the policy fair when widths cannot discriminate.  Every
   pick is announced as a [Policy_pick] event carrying the width the
   decision saw and how many candidates it saw it among, so a scheduling
   trace is explainable after the fact. *)
let select t =
  let pick =
    match t.live with
    | [] -> None
    | hd :: tl -> (
      match t.policy with
      | Round_robin ->
        t.live <- tl @ [ hd ];
        Some hd
      | Widest_ci ->
        let better a b =
          let wa = width_of a and wb = width_of b in
          if wa <> wb then wa > wb
          else if a.quanta <> b.quanta then a.quanta < b.quanta
          else a.id < b.id
        in
        Some (List.fold_left (fun best e -> if better e best then e else best) hd tl))
  in
  (match pick with
  | Some e when Sink.wants_reports t.sink ->
    emit t
      (Event.Policy_pick
         {
           session = e.id;
           policy = policy_name t.policy;
           width = width_of e;
           queue_depth = List.length t.live;
         })
  | _ -> ());
  pick

let tick t =
  admit t;
  (match select t with
  | None -> ()
  | Some e -> (
    let h = match e.handle with Some h -> h | None -> assert false in
    if Token.cancelled e.token then begin
      h.Session.interrupt Driver.Cancelled;
      finalize_started t e Cancelled ~reason:(Some Driver.Cancelled)
    end
    else if expired t e then begin
      h.Session.interrupt Driver.Time_up;
      finalize_started t e Deadline_exceeded ~reason:(Some Driver.Time_up)
    end
    else begin
      e.quanta <- e.quanta + 1;
      (* Quantum spans go to the scheduler sink's trace and, when the
         session brought its own span buffer (a request-scoped recorder),
         to that too — the request's trace then shows its own grants. *)
      let trace = Sink.trace t.sink in
      let span f =
        (match trace with Some tr -> f tr | None -> ());
        match (e.trace, trace) with
        | Some tr, Some tr' when tr == tr' -> ()
        | Some tr, _ -> f tr
        | None, _ -> ()
      in
      span (fun tr -> Wj_obs.Trace.span_begin tr ~cat:"sched" ("quantum:" ^ e.label));
      let stopped =
        try Ok (h.Session.advance ~max_steps:t.quantum) with exn -> Error exn
      in
      span (fun tr -> Wj_obs.Trace.span_end tr ~cat:"sched" ());
      match stopped with
      | Error exn -> fail t e exn
      | Ok (Some r) -> finalize_started t e (terminal_of_reason r) ~reason:(Some r)
      | Ok None ->
        if Sink.wants_reports t.sink || Sink.metrics t.sink <> None then (
          match h.Session.progress () with
          | Some p ->
            publish_progress t e p;
            emit t
              (Event.Session_report
                 { session = e.id; progress = p; deadline_left = deadline_left t e })
          | None -> ())
    end));
  t.live <> [] || not (Queue.is_empty t.queue)

let drain_local t = while tick t do () done

let cancel_all t =
  List.iter (fun e -> if not (is_terminal e.state) then Token.cancel e.token) t.all;
  drain_local t

(* ---- Domain-sharded drain --------------------------------------------- *)

(* One shard = one OCaml domain draining a private sub-scheduler.  Queued
   entries are pinned to shard [(pin | id) mod domains]; each shard gets
   its own sink — a fresh metrics registry when the main sink carries
   one, an event buffer when it has a callback — so nothing inside the
   concurrent drain loops is shared.  Sessions keep their own PRNG
   streams and budgets, so which domain hosts a session never changes its
   trajectory.  At the join barrier the buffered milestone events replay
   and the shard registries and span buffers merge into the main sink,
   in shard order: for a fixed seed and pinning, scheduler output is
   reproducible whatever the domain count.  (A span buffer is not
   domain-safe, so each shard records quantum spans into a private
   trace — same clock as the main one — replayed at the barrier, just
   like the metrics.) *)
type shard = {
  sh_sched : t;
  sh_events : Event.t list ref;  (* reverse emission order *)
  sh_metrics : Metrics.t option;
  sh_trace : Wj_obs.Trace.t option;
}

let make_shard t =
  let sh_events = ref [] in
  let sh_metrics =
    Option.map (fun _ -> Metrics.create ()) (Sink.metrics t.sink)
  in
  let sh_trace =
    Option.map
      (fun tr ->
        Wj_obs.Trace.create
          ~capacity:(Wj_obs.Trace.capacity tr)
          ~clock:(Wj_obs.Trace.clock tr) ())
      (Sink.trace t.sink)
  in
  let on_event =
    if Sink.wants_reports t.sink then
      Some (fun ev -> sh_events := ev :: !sh_events)
    else None
  in
  let sink = Sink.make ?on_event ?metrics:sh_metrics ?trace:sh_trace () in
  {
    sh_sched =
      {
        t with
        sink;
        is_shard = true;
        tenant_counts = Hashtbl.create 1;
        queue = Queue.create ();
        live = [];
        all = [];
        next_id = 0;
      };
    sh_events;
    sh_metrics;
    sh_trace;
  }

let shard_of t e = (match e.pin with Some p -> p | None -> e.id) mod t.domains

let drain_sharded t =
  let shards = Array.init t.domains (fun _ -> make_shard t) in
  Queue.iter
    (fun e -> Queue.push e (shards.(shard_of t e)).sh_sched.queue)
    t.queue;
  Queue.clear t.queue;
  let workers =
    Array.init (t.domains - 1) (fun i ->
        let sub = shards.(i + 1).sh_sched in
        Domain.spawn (fun () -> drain_local sub))
  in
  drain_local shards.(0).sh_sched;
  Array.iter Domain.join workers;
  (* Deterministic publication: shard 0's events and counters land first,
     then shard 1's, ... *)
  Array.iter
    (fun sh ->
      List.iter (fun ev -> emit t ev) (List.rev !(sh.sh_events));
      (match (sh.sh_metrics, Sink.metrics t.sink) with
      | Some src, Some dst -> Metrics.merge ~into:dst src
      | _ -> ());
      match (sh.sh_trace, Sink.trace t.sink) with
      | Some src, Some dst -> Wj_obs.Trace.merge ~into:dst src
      | _ -> ())
    shards;
  (* Shards finalized entries without touching this scheduler's tenant
     table; repair it from the (now terminal) entry states. *)
  recount_tenants t

let drain t =
  if t.domains > 1 && not (Queue.is_empty t.queue) then drain_sharded t;
  (* Single-domain path, and whatever is live on the main scheduler
     itself (sessions already started by interleaved [tick]s). *)
  drain_local t

(* ---- Submission ------------------------------------------------------ *)

(* The one admission path: the query picks the driver
   ({!Wj_core.Session.start}).  The session's metrics land under
   "session<id>." of whichever (sub-)scheduler hosts the entry. *)
let submit t ?(label = "") ?deadline ?token ?tenant ?pin (cfg : Run_config.t) q
    registry =
  (match admission t ?tenant () with
  | Some r ->
    (match tenant with
    | Some name -> bump_tenant_counter t name "rejected"
    | None -> ());
    raise (Rejected r)
  | None -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  let label = if label = "" then "session" ^ string_of_int id else label in
  let deadline = Option.map (fun d -> Timer.elapsed t.clock +. d) deadline in
  let token = match token with Some tk -> tk | None -> Token.create () in
  let start exec =
    Session.start
      (Run_config.with_sink cfg (session_sink exec id cfg.Run_config.sink))
      q registry
  in
  let e =
    {
      id;
      label;
      token;
      tenant;
      deadline;
      pin;
      start;
      (* A request-scoped recorder's span buffer rides along so [tick]
         can bracket this session's quanta in the request's own trace. *)
      trace = Sink.trace (Run_config.resolved_sink cfg);
      state = Queued;
      handle = None;
      result = None;
      quanta = 0;
      reason = None;
    }
  in
  Queue.push e t.queue;
  t.all <- e :: t.all;
  account_submit t e;
  emit t (Event.Session_admitted { session = id; label });
  e

(* ---- Session handles ------------------------------------------------- *)

let state s = s.state
let id s = s.id
let quanta s = s.quanta
let stop_reason s = s.reason
let cancel s = Token.cancel s.token
let result s = s.result

(* Long-running hosts (the wjd daemon) submit an unbounded stream of
   sessions; without pruning, [all] — kept only for {!sessions}
   introspection — and the registry's "session<id>." families would grow
   forever. *)
let prune t =
  let live, gone = List.partition (fun e -> not (is_terminal e.state)) t.all in
  t.all <- live;
  match Sink.metrics t.sink with
  | None -> ()
  | Some m -> List.iter (fun e -> Metrics.fold_scope m ("session" ^ string_of_int e.id)) gone

let live_count t = List.length t.live
let queued_count t = Queue.length t.queue

let tenant_in_flight t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.tenant_counts []
  |> List.sort compare

type info = { info_id : int; info_label : string; info_state : state; info_quanta : int }

let sessions t =
  List.rev_map
    (fun e ->
      {
        info_id = e.id;
        info_label = e.label;
        info_state = e.state;
        info_quanta = e.quanta;
      })
    t.all
