(** Prometheus text-format exposition of a {!Metrics} registry —
    dependency-free, for the daemon's [GET /metrics] endpoint.

    {!render} walks {!Metrics.families} and emits the 0.0.4 text format:
    one [# TYPE] line per metric family followed by its samples.
    Counters and gauges are one sample each; histograms expand to the
    conventional [_bucket]/[_sum]/[_count] triple with cumulative
    [le]-labelled buckets.

    Two registry naming conventions become labels rather than name
    soup:

    - ["session<N>.walker.walks"] → [wj_walker_walks{session="<N>"}] —
      the scheduler's per-session scopes collapse into one family per
      metric, so a Prometheus query can [sum by ()] across sessions;
    - ["tenant.<name>.submitted"] → [wj_tenant_submitted{tenant="<name>"}].

    Everything else is sanitized ([.] and any other character outside
    [[a-zA-Z0-9_:]] becomes [_]) and prefixed with ["wj_"].

    Bucket semantics: {!Histogram} buckets are indexed by small
    integers (a failure depth, a log₂-millisecond latency class), so
    the [le] label is the {e bucket index}, cumulative as Prometheus
    requires, with the mandatory [le="+Inf"] terminator; [_sum] is the
    index-weighted total [Σ i·count(i)] — exact when the index is the
    observed value, a lower bound when observations clamp.  Trailing
    all-zero buckets are elided (the [+Inf] line still carries the full
    count), keeping the exposition compact for wide histograms. *)

val render : Metrics.t -> string
(** The complete exposition document, terminated by a newline.
    Deterministic for a given registry state: families sort by exposed
    name, series within a family by original registry name.  If two
    registry names collapse onto the same exposed family with different
    kinds, the first (in registry order) wins and the others are
    dropped — exposition output is always well-formed. *)

val content_type : string
(** The value to serve with: ["text/plain; version=0.0.4"]. *)
