(** [wjd]: the wander-join network daemon.

    One daemon owns one {!Wj_storage.Catalog.t}, its one
    {!Wj_core.Registry.store}, one {!Wj_service.Scheduler.t} and one
    {!Estimate_cache.t}, and exposes them over HTTP/1.1 + JSON (see
    [PROTOCOL.md] for the wire spec):

    - [POST /query] (and [GET /query?sql=...]) submits a statement
      through the unified {!Wj_service.Scheduler.submit} path and
      streams one chunk per scheduler quantum — the live
      estimate-and-CI trajectory — followed by a final result chunk.
      Because quantum scheduling never perturbs a session's PRNG
      stream, the streamed trajectory and final estimate are
      bit-for-bit those of an in-process run with the same seed and
      budgets.  A session that raises ends its own stream with
      ["status":"failed"] and the exception's message; the scheduler
      keeps serving every other request.
    - Indexes: every request's registry is a view over the daemon's
      store, so each index is built by the first request that needs it
      and kept for the daemon's life — memory grows with the distinct
      (table, columns, kind) triples requests have asked for, not with
      the request count (about 27 MB at SF 0.05 for the three
      [wjd_mixed] shapes).
    - Admission control: a full queue or an exhausted per-tenant quota
      answers [429] with [Retry-After] {e before} anything is queued;
      request deadlines map onto scheduler deadlines; a client that
      disconnects mid-stream has its sessions cancelled at the next
      chunk (within one quantum of walks).
    - Repeat queries are served from the estimate cache — keyed by
      normalized statement, execution overrides and catalog epoch — at
      their recorded CI, instantly.
    - [GET /health], [GET /stats] (cache hit/miss/staleness counters,
      per-tenant accounting, every scheduler metric) and
      [POST /shutdown] round out the surface.
    - Observability over the wire: [GET /metrics] renders the whole
      registry in Prometheus text exposition ({!Wj_obs.Prom}), with
      runtime gauges ([gc.*], [sched.*], [cache.entries],
      [tenant.<name>.in_flight]) refreshed at scrape time and
      request-latency histograms ([http.queue_wait_ms],
      [http.first_report_ms], [http.target_ci_ms]; log₂-millisecond
      buckets).  A request carrying an [X-WJ-Trace] header runs with
      span tracing on; its Chrome-trace document is retained (bounded
      {!Lru}) and served at [GET /trace/<id>].  Every
      [/query] response echoes the request's trace id — generated when
      the client sent none.  An optional JSON-lines access log records
      one structured line per request (trace id, tenant,
      normalized-statement hash, outcome, queue wait, quanta, walks,
      final CI half-width, cache disposition — [skipped_cheap] for an
      exact answer below the cache's rows-visited floor), and requests
      slower than [slow_query_ms] additionally dump their convergence
      fit.

    Threading: one scheduler thread owns the (single-threaded)
    scheduler and ticks it under the daemon mutex; one accept thread
    spawns a handler thread per connection; handlers touch shared state
    only under that same mutex.  Per-session progress flows from the
    scheduler sink to handler threads through per-request queues, so a
    slow client never blocks the scheduler. *)

type t

val create :
  ?quantum:int ->
  ?max_live:int ->
  ?max_queued:int ->
  ?tenant_quota:int ->
  ?cache_capacity:int ->
  ?trace_capacity:int ->
  ?access_log:string ->
  ?slow_query_ms:float ->
  ?default_seed:int ->
  ?default_time:float ->
  ?port:int ->
  Wj_storage.Catalog.t ->
  t
(** Configure a daemon (nothing listens until {!start}).

    [quantum] (default 256) and [max_live] (default 4) go to
    {!Wj_service.Scheduler.create}; [max_queued] (default 64) bounds the
    admission FIFO and [tenant_quota] (default unbounded) each tenant's
    in-flight sessions — both are the levers behind [429].
    [cache_capacity] (default 256) bounds the estimate cache; exact-only
    answers below its rows-visited floor are not cached (see
    {!Estimate_cache.store}).  [trace_capacity] (default 64) bounds the
    retained-trace ring behind [GET /trace/<id>].  [access_log] enables
    the JSON-lines access log: a file path (appended to) or ["-"] for
    stderr.  [slow_query_ms] (default 0 = off) is the slow-query
    threshold: requests at or above it log [slow:true] plus their
    convergence fit.  [default_seed] (default 11) and [default_time]
    (default 5 s) apply to requests that don't override them.  A [429]
    carries [Retry-After: 1] (seconds).  [port] (default 0 =
    kernel-assigned ephemeral) is the TCP port; the daemon binds loopback
    only. *)

val start : t -> unit
(** Bind, listen, and spin up the scheduler and accept threads.
    Ignores [SIGPIPE] process-wide (a streaming server cannot survive
    otherwise).  Raises [Unix.Unix_error] when the port is taken. *)

val port : t -> int
(** The bound TCP port (resolves the ephemeral port after {!start}). *)

val url : t -> string
(** ["http://127.0.0.1:<port>"]. *)

val wait : t -> unit
(** Block until the daemon stops — via [POST /shutdown] from the wire or
    {!stop} from another thread.  This is [wjd]'s serve loop. *)

val stop : t -> unit
(** Stop accepting, stop the scheduler thread, close the listening
    socket and join both threads, retire every session still queued or
    running as cancelled, then close an access-log file (stderr is only
    flushed).  In-flight handler threads finish their current response on
    their own: a streaming client gets a final line with
    ["status":"cancelled"], then EOF.  A [/query] read after the stop
    began is answered [503] with code ["stopping"] unless the estimate
    cache holds it.  An access-log line they write after
    the file is closed is dropped, while with ["-"] it still goes to
    stderr.  Idempotent. *)
