(** Cooperative multi-session scheduler for online aggregation.

    Online aggregation's contract is "first estimates within milliseconds,
    refining continuously" — which only composes across concurrent queries
    if no query can monopolise the walk loop.  The scheduler multiplexes
    many run sessions over one shared {!Wj_core.Registry.t}/catalog by
    granting each a bounded {e quantum} of engine steps per turn, using the
    resumable driver loop ({!Wj_core.Engine.Driver.advance}) underneath.

    {2 Determinism}

    A session's estimate trajectory is a pure function of its own PRNG
    stream, and every stop/report decision of the driver loop is keyed on
    the session's {e own} walk count and clock.  Granting quanta therefore
    never perturbs results: a session scheduled among N peers produces
    bit-for-bit the same trajectory and final estimate as the same session
    run alone (enforced by [test/test_service.ml]).

    {2 State machine}

    {v
      submit            capacity           driver stop
        │                  │                    │
        ▼                  ▼                    ▼
      Queued ────────► Running ────────► Reporting ────► Done
        │                  │ token/deadline     │
        │                  └─────────────► Reporting ──► Cancelled
        │ token cancelled / deadline passed           └► Deadline_exceeded
        └────────────────────────────────────────────► Cancelled
                                                     └► Deadline_exceeded
      Queued/Running ── start or quantum raised ─────► Failed
    v}

    [Reporting] is transient within one {!tick}: the final progress report
    is emitted and the result cell filled before the terminal state is
    set, so callers polling {!state} between ticks only ever see [Queued],
    [Running] or a terminal state.

    Cancellation and deadlines act {e between} quanta ({!Wj_core.Engine.Driver.interrupt}):
    a cancelled or expired session stops within one scheduler quantum,
    regardless of the driver's own cancellation polling cadence. *)

type state =
  | Queued  (** admitted, waiting for a live slot (FIFO) *)
  | Running  (** holds a live slot, receives quanta *)
  | Reporting  (** transient: driver stopped, final report in flight *)
  | Done  (** driver resolved its own stop condition *)
  | Cancelled  (** token cancelled (queued or mid-run) *)
  | Deadline_exceeded  (** deadline passed (queued or mid-run) *)
  | Failed of string
      (** the session's start or a quantum raised; the exception's text.
          The session has no result, and the scheduler's sink counts it
          in ["sched.failed"]. *)

val state_name : state -> string
(** Lowercase snake-case name (["queued"], ["deadline_exceeded"], ...),
    also used as the [outcome] string of [Session_finished] events. *)

val is_terminal : state -> bool
(** [Done], [Cancelled], [Deadline_exceeded] or [Failed]. *)

type policy =
  | Round_robin  (** rotate through live sessions, one quantum each *)
  | Widest_ci
      (** grant the next quantum to the live session with the widest
          current confidence interval (ties — including the all-infinite
          start, and sessions that expose no scalar CI — break by fewest
          quanta granted, then lowest id) *)

(** {2 Admission control}

    Admission is bounded on two axes, both opt-in and both enforced at
    {!submit} time (the only moment admission state can change from the
    submitter's side):

    - a {e queue limit} ([max_queued]): once [max_live] sessions run and
      [max_queued] more wait, further submissions are rejected — the
      backpressure signal a network front end turns into HTTP 429;
    - a {e per-tenant quota} ([tenant_quota]): a tenant (any string
      bucket — API key, user, service) may have at most that many
      sessions in flight (queued + running), so one aggressive client
      cannot fill the whole queue.

    Rejections raise {!Rejected}.  When the scheduler sink carries a metrics
    registry, per-tenant counters land under ["tenant.<name>."]:
    [submitted], [finished], [rejected]. *)

type reject =
  | Queue_full of { queued : int; max_queued : int }
      (** every live slot and every queue slot is taken *)
  | Tenant_quota of { tenant : string; in_flight : int; quota : int }
      (** this tenant alone is over its in-flight cap *)

exception Rejected of reject
(** Raised by {!submit} instead of queueing when a limit is hit. *)

val reject_description : reject -> string
(** One-line human rendering ("admission queue full (8 queued, cap 8)"). *)

type t

val create :
  ?quantum:int ->
  ?max_live:int ->
  ?policy:policy ->
  ?domains:int ->
  ?max_queued:int ->
  ?tenant_quota:int ->
  ?sink:Wj_obs.Sink.t ->
  ?clock:Wj_util.Timer.t ->
  unit ->
  t
(** [quantum] (default 256) is the number of engine steps per grant;
    [max_live] (default 4) caps concurrently Running sessions — further
    submissions queue FIFO.  [clock] (default wall) times deadlines.

    [max_queued] (default unbounded) caps the admission FIFO: a
    submission finding [max_live] sessions running {e and} [max_queued]
    queued raises {!Rejected}[ (Queue_full _)] — total in-flight capacity
    is [max_live + max_queued].  [tenant_quota] (default unbounded) caps
    any single tenant's in-flight sessions; it only applies to
    submissions that carry a [~tenant].

    [domains] (default 1) shards {!drain} across that many OCaml domains:
    queued sessions are pinned to per-domain workers (shard
    [(pin | id) mod domains]), each worker drains its shard against a
    private sink, and at the join barrier the shards' buffered milestone
    events replay and their metrics registries {!Wj_obs.Metrics.merge}
    into this scheduler's sink, in shard order.  A session's trajectory
    is a pure function of its own PRNG stream, so sharding never changes
    estimates; with a fixed seed and pinning, and sessions that stop on
    their own budgets/targets (not wall time), output is bit-for-bit
    reproducible at any domain count.  Per-session event callbacks and
    [max_live] apply per shard; quantum trace spans are buffered in a
    private per-shard trace (sharing the main trace's clock) and
    {!Wj_obs.Trace.merge}d at the join barrier in shard order, so span
    counts match the single-domain run; the paged storage backend's
    buffer pool is single-domain, so [Sql.Engine.serve] refuses
    [domains > 1] over paged tables.

    [sink] is the scheduler-level sink: it receives [Session_admitted],
    [Session_started], per-quantum [Session_report] (carrying the
    session's remaining deadline, when it has one), [Policy_pick] for
    every scheduling decision, and [Session_finished] (carrying the
    driver's stop reason) — all milestone events, so a reports-only
    subscriber such as {!Wj_obs.Recorder.sink} sees everything the
    scheduler does.  When the sink carries a metrics registry, each
    session's driver metrics land in that registry under a
    ["session<id>."] scope ({!Wj_obs.Metrics.scoped}) and the scheduler
    additionally publishes per-session
    ["session<id>.progress.{estimate,half_width,walks}"] gauges at each
    report, so one registry holds per-session families side by side.
    When it carries a trace, every quantum grant is recorded as a
    ["quantum:<label>"] span; a session whose {!Wj_core.Run_config}
    resolves to a sink with its own trace (a request-scoped recorder
    under the daemon) gets the same span in that buffer too, so each
    request's trace shows its own grants.  Raises [Invalid_argument]
    when [quantum < 1] or [max_live < 1]. *)

val in_flight : t -> ?tenant:string -> unit -> int
(** Non-terminal (queued + running) sessions; with [tenant], only that
    tenant's.  Tenant accounting is maintained by the submitting
    scheduler — during a multi-domain {!drain} it is repaired at the join
    barrier rather than updated live. *)

val live_count : t -> int
(** Sessions currently granted a live slot (the [Running] set). *)

val queued_count : t -> int
(** Sessions admitted but still waiting in the FIFO. *)

val tenant_in_flight : t -> (string * int) list
(** Per-tenant non-terminal session counts, sorted by tenant name —
    the quota-usage view behind the daemon's
    [tenant.<name>.in_flight] gauges. *)

type session
(** Handle returned at submission. *)

val submit :
  t ->
  ?label:string ->
  ?deadline:float ->
  ?token:Token.t ->
  ?tenant:string ->
  ?pin:int ->
  Wj_core.Run_config.t ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  session
(** The unified admission path: one entry point for every query.  The
    query picks the session kind through {!Wj_core.Session.start}: a
    GROUP BY query runs as a group-by session (result
    [Wj_core.Session.Groups]), any other as a scalar online session
    ([Wj_core.Session.Scalar]).  Nothing runs yet — plan selection happens
    when the scheduler starts the session (so a cancelled queued session
    costs nothing).  [deadline] is in seconds from submission on the
    scheduler clock; [token] allows external cancellation (a fresh token
    is created otherwise — see {!cancel}); [label] defaults to
    ["session<id>"].  [pin] fixes the session's shard under a
    multi-domain {!drain} (default: its id); sessions sharing a pin value
    always land on the same domain, which is what makes a fixed-seed
    multi-domain run reproducible.

    [tenant] assigns the session to an admission-quota bucket (see
    {e Admission control} above).  Raises {!Rejected} when the queue
    limit or the tenant's quota is hit — nothing is queued and no id is
    consumed. *)

(** {2 Driving the scheduler} *)

val tick : t -> bool
(** One scheduling pass: admit queued sessions into free live slots
    (retiring queued sessions whose token was cancelled or whose deadline
    passed), pick one live session per {!policy}, and either grant it a
    quantum of steps or — if its token was cancelled or deadline passed —
    interrupt and finalize it.  A session whose start or quantum raises is
    retired as [Failed]; the exception does not escape [tick].  Returns
    [false] when no session is live or queued (i.e. nothing left to do). *)

val drain : t -> unit
(** [tick] until everything submitted has reached a terminal state.  With
    [domains > 1], queued sessions are first dealt to per-domain shard
    schedulers and drained concurrently (see {!create}); anything already
    live on this scheduler finishes on the calling domain afterwards. *)

val cancel_all : t -> unit
(** Cancel every session not yet terminal and retire each as
    [Cancelled] on the calling domain: every one emits its
    [Session_finished] before this returns.  For a host that stops while
    requests are in flight. *)

(** {2 Session handles} *)

val state : session -> state
(** Current state; between ticks this is never [Reporting]. *)

val id : session -> int
(** Scheduler-unique id, in admission order; keys the [Session_*] events
    and the ["session<id>."] metric scope. *)

val quanta : session -> int
(** Quanta granted to this session so far (the fairness measure). *)

val stop_reason : session -> Wj_core.Engine.Driver.stop_reason option
(** The driver-level stop reason once the session is terminal ([None]
    for a session retired while still queued). *)

val cancel : session -> unit
(** Cancel the session's token: a queued session retires without ever
    starting; a running one is interrupted before its next quantum. *)

val result : session -> Wj_core.Session.outcome option
(** The driver outcome, once terminal.  Present for cancelled and
    deadline-exceeded sessions too (the estimate so far), except a
    session that never started or that failed. *)

type info = {
  info_id : int;
  info_label : string;
  info_state : state;
  info_quanta : int;
}

val sessions : t -> info list
(** Every submission since the last {!prune}, in admission order. *)

val prune : t -> unit
(** Forget terminal sessions from the {!sessions} introspection list, and
    retire each one's ["session<id>."] metric families
    ({!Wj_obs.Metrics.fold_scope}): counters and histograms add into the
    unscoped families, gauges are dropped.  Long-running hosts (the [wjd]
    daemon) call this periodically so an unbounded submission stream
    grows neither scheduler memory nor the metrics registry.  Existing
    session handles stay valid — only the [info] listing and the
    registry shrink. *)
