(** Where a run session's observability goes.

    A sink couples an optional typed event callback with an optional
    {!Metrics.t} registry and an optional {!Trace.t} span buffer.
    Producers (walker, engine, drivers, buffer pool, scheduler)
    interrogate the sink once at setup: with {!noop} they keep zero
    instrumentation on the hot path — no event allocation, no counter
    stores, no span records — which is what keeps fixed-seed walks/sec at
    the uninstrumented baseline.

    Event callbacks come in two granularities.  [`All] (the default) sees
    every event, including the per-walk/per-probe hot-path ones.
    [`Reports] sees only the milestone events — [Report], [Stopped],
    [Plan_chosen], [Policy_pick] and the [Session_*] lifecycle — so a
    flight recorder can subscribe to progress without dragging per-row
    event construction onto the walk hot path.  Hot-path producers guard
    on {!wants_events}; milestone producers guard on {!wants_reports}. *)

type t

val noop : t
(** Observe nothing (the default everywhere). *)

val make :
  ?on_event:(Event.t -> unit) ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?events:[ `All | `Reports ] ->
  unit ->
  t
(** Couple an event callback, a metrics registry and/or a trace buffer;
    with none of them this is {!noop}.  [events] (default [`All]) sets
    the callback's granularity and is meaningless without [on_event]. *)

val of_fn : (Event.t -> unit) -> t
(** Events only, full granularity. *)

val of_metrics : Metrics.t -> t
(** Metrics only. *)

val metrics : t -> Metrics.t option
(** The registry producers should bind their families in, if any. *)

val trace : t -> Trace.t option
(** The span buffer producers should record into, if any. *)

val wants_events : t -> bool
(** Whether a full-granularity event callback exists — hot paths guard
    event construction behind this. *)

val wants_reports : t -> bool
(** Whether any event callback exists (full or reports-only) — milestone
    producers (report ticks, stop, session lifecycle, plan/policy picks)
    guard behind this.  Implied by {!wants_events}. *)

val emit : t -> Event.t -> unit
(** Deliver one event to the callback, if any.  Hot paths must guard the
    event's construction behind {!wants_events} (milestone sites behind
    {!wants_reports}); [emit] itself is then only reached when a callback
    exists. *)

val tee : t -> t -> t
(** Both callbacks fire (left first) at the widest granularity either
    side requested; the left metrics registry and the left trace win when
    both are present. *)
