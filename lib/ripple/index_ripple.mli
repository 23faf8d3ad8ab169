(** Classic index ripple join (§2; Lipton & Naughton style).

    Random sampling happens on one table only; each sampled tuple t is
    completed to t ⋈ R_2 ⋈ ... ⋈ R_k exhaustively through the indexes
    ({!Wj_core.Walker.scan} on the walk plan).  The
    per-sample totals, scaled by |R_1|, are i.i.d. observations of the
    aggregate, so the standard mean/variance confidence interval applies —
    the tightest possible CI machinery, at the cost of a potentially huge
    per-sample completion (one sampled customer can join thousands of
    lineitems). *)

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;  (** sampled start tuples *)
  successes : int;  (** join results enumerated so far *)
  tuples : int;
  estimate : float;
  half_width : float;
}
(** Re-export of the unified progress record ({!Wj_obs.Progress.t}). *)

val run :
  ?seed:int ->
  ?target:Wj_stats.Target.t ->
  ?max_time:float ->
  ?max_samples:int ->
  ?start:int ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  report
(** [start] picks the sampled table position (default: the first position
    of the first enumerated walk plan).  The interval is at 95%
    confidence and [max_time] is wall time.  Supports SUM and COUNT.
    Raises [Invalid_argument] when no walk plan starts at [start]. *)
