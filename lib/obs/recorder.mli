(** The flight recorder: bounded-memory history of a run.

    A recorder owns a {!Metrics.t} registry plus, per metric family, a
    {!Timeseries.t} sampled at every report tick (counters also feed a
    derived ["<name>.rate"] series); optionally a {!Trace.t} span buffer;
    and one {!Convergence.t} diagnostic per scope (the whole run under
    [""], each service session under ["session<id>."]).

    Wiring is one call: {!sink} yields a {!Sink.t} that producers use
    like any other — its metrics half rides the existing counter fast
    path, and its event half subscribes at reports-only granularity, so
    per-walk work is never routed through the recorder.  Attach it via
    [Run_config.with_recorder] / {!Sink.tee} for single sessions, or as
    the scheduler's sink to record a whole multi-session serve.

    {!to_json} builds everything as one JSON object whose first key is
    ["traceEvents"] — [chrome://tracing] and Perfetto load the file
    directly and ignore the recorder's extra sections. *)

type t

val create :
  ?tracing:bool ->
  ?clock:Wj_util.Timer.t ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** Every time series and CI trajectory holds at most 512 points (the
    default of {!Timeseries.create}).  [tracing] (default [false]) enables
    a span buffer of 8192 events (the default of {!Trace.create}) — off by
    default because span recording, unlike time-series sampling, touches
    producer fast paths.
    [clock] (default: fresh wall clock) provides the sample x-axis and
    trace timestamps.  [metrics] defaults to a fresh registry. *)

val metrics : t -> Metrics.t
val trace : t -> Trace.t option

val sink : t -> Sink.t
(** The recorder as a sink: metrics registry + trace + a reports-only
    event callback that samples all series on [Report] /
    [Session_report] / [Stopped] / [Session_finished] and feeds each
    scope's CI trajectory. *)

val scoped_sink : t -> scope:string -> Sink.t
(** Like {!sink}, but driver-level [Report] / [Stopped] events feed the
    CI trajectory of [scope] instead of [""].  The Online driver derives
    [scope] from its sink's metrics prefix, so a session running under
    the scheduler records into the same ["session<id>."] scope as its
    gauges. *)

val sample : t -> unit
(** Append one sample of every registered family now.  {!sink} calls
    this on milestone events; callers with their own cadence (the [top]
    UI tick) may also call it directly. *)

val convergence : t -> scope:string -> Convergence.t
(** Find-or-create the convergence diagnostic for [scope] ([""] for a
    standalone run, ["session<id>."] for service sessions — matching the
    scoped-metrics prefix).  The drivers use this to register plans and
    credit walks. *)

val convergence_scopes : t -> string list
(** Scopes seen so far, in first-use order. *)

val scope_of_session : int -> string
(** ["session<id>."] — the canonical scope for a service session. *)

val series : t -> string -> (float * float) array option
(** The retained [(elapsed, value)] trajectory of one family, if that
    family has been sampled. *)

val to_json : t -> Wj_util.Json.t
(** The combined dump: [{"traceEvents":[...], "timeseries":{...},
    "convergence":{...}, "spans":{...}}]. *)
