(** Point-in-time view of a {!Metrics.t}, with text and JSON renderings.

    The JSON value round-trips through text:
    [of_json (Json.parse (Json.to_string (to_json s)))] reconstructs [s]
    exactly ({!Wj_util.Json} prints floats with 17 significant digits
    and non-finite gauges as the strings ["nan"], ["inf"], ["-inf"]).
    Histograms are emitted as [{"buckets": [...], "p50": .., "p95": ..,
    "p99": ..}]; the quantiles are derived data and only the buckets are
    read back (a bare bucket array, the pre-flight-recorder shape, still
    parses). *)

type entry =
  | Counter of int
  | Gauge of float
  | Histogram of int array

type t = (string * entry) list
(** Sorted by name. *)

val of_metrics : Metrics.t -> t
(** Freeze every registered family's current value. *)

val counter_value : t -> string -> int
(** 0 when absent or not a counter. *)

val gauge_value : t -> string -> float
(** 0.0 when absent or not a gauge. *)

val histogram_value : t -> string -> int array
(** [||] when absent or not a histogram. *)

val equal : t -> t -> bool
(** Structural, with NaN gauges compared equal to themselves. *)

val render : t -> string
(** Human-readable table, grouped counters / histograms / gauges. *)

val to_json : t -> Wj_util.Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{..}}]. *)

val of_json : Wj_util.Json.t -> t
(** Raises {!Wj_util.Json.Parse_error} on a value that is not a
    snapshot. *)
