(** Ripple join (Haas & Hellerstein, SIGMOD 1999) — the baseline wander join
    is measured against (§2, §5).

    Each round retrieves one new random tuple per table, keeps it in an
    in-memory pool, and joins it against the pools of the other tables; the
    running total of joined values, scaled by Π N_i/n_i, is the estimate.

    Two sampling modes, matching the paper's standalone experiments:
    - [Random_order] (RRJ): tables are pre-shuffled and read sequentially —
      O(1) per tuple, but selection predicates force retrieving
      non-qualifying tuples too (they count toward n_i and never join);
    - [Index_assisted] (IRJ): tables with a sargable predicate sample
      qualifying tuples directly out of the predicate's range in an
      ordered index, located once when the run starts (O(log N) once,
      then one array read per tuple, with replacement), and N_i becomes
      the qualifying count.

    Confidence intervals use the first-order large-sample decomposition of
    the estimator variance, Var(Ỹ) ≈ Σ_i N_i² σ̂_i² / n_i, where σ̂_i² is
    the sample variance over table i's pooled tuples of their estimated
    join contributions — an O(Σ n_i) computation performed at report time
    (the exact O(k n^k) formulas of Haas are deliberately not reproduced).

    SUM, COUNT and AVG are supported. *)

type mode = Random_order | Index_assisted

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;  (** ripple rounds completed (one tuple per table per round) *)
  successes : int;  (** join results (combos) discovered so far *)
  tuples : int;  (** tuples retrieved across all tables *)
  estimate : float;
  half_width : float;
}
(** Re-export of the unified progress record ({!Wj_obs.Progress.t}). *)

type outcome = {
  final : report;
  history : report list;
  mode : mode;
}

val run :
  ?seed:int ->
  ?mode:mode ->
  ?target:Wj_stats.Target.t ->
  ?max_time:float ->
  ?max_rounds:int ->
  ?report_every:float ->
  ?on_report:(report -> unit) ->
  ?clock:Wj_util.Timer.t ->
  ?tuple_tracer:(pos:int -> slot:int -> sequential:bool -> unit) ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  outcome
(** Intervals are at 95% confidence.

    [tuple_tracer ~pos ~slot ~sequential] fires on every retrieved tuple
    (I/O simulation hook): [slot] is the storage position — the scan cursor
    for [Random_order] tables (read sequentially from their shuffled
    on-disk order) and the row id for index-sampled tables ([sequential =
    false], a random access).  The registry is only consulted for [Index_assisted] predicate
    sampling.  Raises [Invalid_argument] for aggregates other than
    SUM/COUNT/AVG or for non-equality join conditions. *)
