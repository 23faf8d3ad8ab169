(** One-call SQL execution: parse, bind, run.

    [SELECT ONLINE ...] statements run wander join with periodic reports;
    plain [SELECT ...] statements run the exact executor.  Each call
    builds its indexes into one fresh {!Wj_core.Registry.store}, so a
    statement with several aggregates builds each index once. *)

type item_outcome =
  | Online_scalar of Wj_core.Online.outcome
  | Online_groups of Wj_core.Online.group_outcome
  | Exact_scalar of Wj_exec.Exact.result
  | Exact_groups of (Wj_storage.Value.t * Wj_exec.Exact.result) list

type result = {
  statement : Ast.statement;
  items : (Ast.select_item * item_outcome) list;
}

val execute_session :
  ?on_report:(string -> unit) ->
  Wj_core.Run_config.t ->
  Wj_storage.Catalog.t ->
  string ->
  result
(** The run-session entry point: every ONLINE aggregate of the statement
    runs under the given {!Wj_core.Run_config.t} (seed, budgets,
    clock, cancellation, sink).  Statement clauses override the config —
    WITHINTIME beats [cfg.max_time], CONFIDENCE beats [cfg.confidence],
    REPORTINTERVAL beats [cfg.report_every].  [cfg.sink] observes every
    ONLINE aggregate in turn (metric families accumulate across them).
    [on_report] receives formatted progress lines on every report tick.
    When [cfg.backend] is [Paged], the catalog's tables are swapped for
    their segment-backed twins (written on first use) before binding, so
    index builds and walks fault through a bounded buffer pool.
    Raises [Lexer.Lex_error], [Parser.Parse_error] or [Binder.Bind_error]. *)

val execute :
  ?seed:int ->
  ?default_time:float ->
  ?sink:Wj_obs.Sink.t ->
  ?on_report:(string -> unit) ->
  Wj_storage.Catalog.t ->
  string ->
  result
(** Thin shim over {!execute_session}.  [default_time] bounds ONLINE
    statements that carry no WITHINTIME clause (default 5 s).
    Raises [Lexer.Lex_error], [Parser.Parse_error] or [Binder.Bind_error]. *)

val render : result -> string
(** Human-readable rendering of the final estimates/results. *)

(** {2 Serve (batch) mode}

    [serve] admits every ONLINE aggregate of a list of statements into one
    {!Wj_service.Scheduler.t} and drains it: the statements run
    {e concurrently}, interleaved by bounded quanta of walks.  Every
    statement's registry is a view over one {!Wj_core.Registry.store}
    for the batch, so each index is built once for the whole batch.  The
    store's index over a column depends on the column alone, and
    quantum scheduling never perturbs a session's PRNG stream, so serving
    a batch produces bit-for-bit the same estimates as running
    {!execute_session} on each statement in turn (for walk-budget-bounded
    statements; wall-clock-bounded ones stop at whatever their share of
    time allowed).  Exact (non-ONLINE) items run synchronously at
    submission. *)

type served_item = {
  item : Ast.select_item;
  outcome : item_outcome option;
      (** [None] when the session was cancelled or timed out while still
          queued (it never ran), or failed; cancelled {e running}
          sessions report the estimate accumulated so far *)
  session_state : Wj_service.Scheduler.state;
  session_reason : Wj_obs.Event.stop_reason option;
      (** why the session's driver loop stopped (target reached, time up,
          budget exhausted, cancelled); [None] for exact items and for
          sessions retired before ever running *)
}

type served = {
  served_sql : string;
  served_statement : Ast.statement;
  served_items : served_item list;
}

val serve :
  ?quantum:int ->
  ?max_live:int ->
  ?policy:Wj_service.Scheduler.policy ->
  ?domains:int ->
  ?sink:Wj_obs.Sink.t ->
  ?deadline:float ->
  Wj_core.Run_config.t ->
  Wj_storage.Catalog.t ->
  string list ->
  served list
(** [quantum]/[max_live]/[policy]/[domains] configure the scheduler (see
    {!Wj_service.Scheduler.create}); every online item runs through the
    unified {!Wj_service.Scheduler.submit} path, pinned by statement index
    so a multi-domain drain keeps one statement's items on one domain.
    [sink] is the {e scheduler-level}
    sink receiving [Session_admitted]/[Session_started]/[Session_report]/
    [Session_finished] events (one [Session_report] per quantum — the
    interleaved progress stream) and hosting per-session scoped metrics.
    [deadline] (seconds from admission, on [cfg.clock] or wall) applies to
    every statement.  Statement clauses override [cfg] per statement as in
    {!execute_session}.  Results come back in submission order.
    Raises [Lexer.Lex_error], [Parser.Parse_error] or [Binder.Bind_error],
    and [Invalid_argument], before submitting anything, when
    [domains > 1] and any catalog table is paged (the buffer pool is
    single-domain). *)

val render_served : served list -> string
(** Human-readable rendering of a served batch, one header per statement;
    each online item's stop reason is appended as [[reason]]. *)

(** {2 Building blocks}

    Exposed for hosts that drive {!Wj_service.Scheduler.submit}
    themselves (the [wjd] daemon) yet must stay bit-for-bit consistent
    with {!serve}'s clause handling and labelling. *)

val item_label : Ast.select_item -> string
(** ["count(*)"], ["sum(S.b)"], ... — the label used in scheduler session
    names and result renderings. *)

val apply_clauses :
  Wj_core.Run_config.t -> Ast.statement -> Binder.bound -> Wj_core.Run_config.t
(** Fold a statement's clauses over a session config: WITHINTIME beats
    [max_time], CONFIDENCE beats [confidence], REPORTINTERVAL beats
    [report_every] — exactly the override rule {!execute_session} and
    {!serve} apply. *)

val exact_item : Wj_core.Query.t -> Wj_core.Registry.t -> item_outcome
(** The exact executor's answer for one bound aggregate: [Exact_groups]
    under GROUP BY, [Exact_scalar] otherwise. *)
