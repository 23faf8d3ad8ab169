(** Span tracing with a dependency-free Chrome [trace_event] exporter.

    A trace is a bounded, preallocated buffer of begin/end/complete/
    instant events plus running per-name duration totals.  Producers
    (driver quanta, scheduler grants, optimizer trials, simulated I/O)
    open and close spans; {!to_json} emits the standard
    [{"traceEvents":[...]}] object that [chrome://tracing] and Perfetto
    load directly.

    Overhead discipline: a producer holds the trace as an option resolved
    once at setup ([None] → zero work, same as {!Sink.noop}); when the
    buffer fills, further events are counted in {!dropped} rather than
    grown — memory stays bounded for arbitrarily long runs, and the
    totals keep accumulating even after the event buffer is full. *)

type t

val create : ?capacity:int -> ?clock:Wj_util.Timer.t -> unit -> t
(** [capacity] (default 8192) is the event-buffer bound; raises
    [Invalid_argument] when [< 1].  [clock] defaults to a fresh wall
    clock; pass a virtual clock for deterministic timestamps in tests or
    under the I/O simulator. *)

val span_begin : t -> ?cat:string -> string -> unit
(** Open a span.  Spans nest: {!span_end} closes the innermost one. *)

val span_end : t -> ?cat:string -> unit -> unit
(** Close the innermost open span, crediting its duration to the span
    name's total.  Unbalanced calls (no span open) are counted as drops
    and otherwise ignored; {!depth} never goes negative. *)

val complete : t -> ?cat:string -> dur:float -> string -> unit
(** A retrospective span of [dur] seconds ending now (phase ["X"]) — used
    when the duration is known analytically, e.g. a simulated I/O
    charge. *)

val instant : t -> ?cat:string -> string -> unit
(** A zero-duration marker event (phase ["i"]). *)

val depth : t -> int
(** Number of currently open spans.  Balanced begin/end sequences return
    to the depth they started at — QCheck-tested across
    [Driver.advance] interrupt/resume. *)

val length : t -> int
(** Buffered events (excluding dropped ones). *)

val dropped : t -> int
(** Events discarded after the buffer filled, plus unbalanced
    {!span_end} calls. *)

val capacity : t -> int

val clock : t -> Wj_util.Timer.t
(** The clock timestamps are read from. *)

val totals : t -> (string * (float * int)) list
(** Per-name [(total_seconds, event_count)], sorted by name.  Durations
    come from closed spans and [complete] events; instants count with
    zero duration.  Totals survive buffer exhaustion. *)

val merge : into:t -> t -> unit
(** Append the source's buffered events (keeping their timestamps — the
    domain-sharded scheduler gives every shard trace the parent's clock,
    so merged events share one timeline) and fold its totals and drop
    count into [into].  [into]'s own open-span stack is untouched; the
    source should be balanced, as a completed drain guarantees.  Called
    at the sharded-drain join barrier, in shard order, so trace output
    is deterministic for a fixed seed and pinning. *)

val write_events : t -> Buffer.t -> unit
(** Append the JSON array of trace events (the value of the
    ["traceEvents"] key) to [buf]. *)

val to_json : t -> string
(** The complete Chrome-loadable object: [{"traceEvents":[...]}]. *)

val events_of_json : string -> (string * string * string * float) list
(** Read a Chrome trace document back: [(name, cat, ph, ts_seconds)]
    per event, in array order.  Accepts anything {!to_json} or
    {!Recorder.to_json} produced — extra members beside [traceEvents]
    are skipped.  Parses through {!Wj_util.Json.parse}; raises
    {!Wj_util.Json.Parse_error} on malformed JSON (including trailing
    garbage) and on a document of the wrong shape.  This is the
    verification half of the exporter: [events_of_json (to_json t)]
    returns one tuple per buffered event, with timestamps equal up to
    the microsecond formatting of the writer. *)
