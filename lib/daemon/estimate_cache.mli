(** Epoch-keyed cache of finished estimates — the daemon's answer to
    repeat queries.

    A wander-join session is expensive; its verdict (estimate + CI at
    completion) is a tiny value.  The daemon records that verdict the
    first time a statement finishes and serves it instantly on repeats,
    pinned at the recorded half-width rather than re-walked.

    Keys compose three parts:

    - the {e normalized} statement text ({!Wj_sql.Normalize.statement}),
      so alias renames, reordered [AND] conjuncts and flipped join sides
      all hit the same entry;
    - the caller's execution overrides (seed, walk/time budgets, target
      CI) — a request that forces a different seed is a different
      experiment and must not see another seed's estimate;
    - implicitly, the catalog {e epoch} ({!Wj_storage.Catalog.epoch}):
      each entry remembers the epoch it was computed under, and a lookup
      at a newer epoch evicts the entry and reports it stale, because
      the data has changed under it.

    Capacity is bounded with least-recently-used eviction, and admission
    is cost-aware: {!store} with a [cost] below the configured floor is
    skipped — a sub-millisecond exact answer is cheaper to recompute
    than to cache.  Counters ([cache.hits] / [cache.misses] /
    [cache.stale] / [cache.evictions] / [cache.skipped_cheap] in the
    registry passed to {!create}) make hit rates and the admission
    policy observable via [GET /stats] and [GET /metrics].  Not
    thread-safe — the daemon serializes access under its scheduler
    mutex. *)

type t

type entry = {
  results : Wj_util.Json.t;  (** the final per-item results array, as streamed *)
  epoch : int;  (** catalog epoch the estimate was computed under *)
}

val create : ?capacity:int -> ?min_cost:float -> Wj_obs.Metrics.t -> t
(** [capacity] (default 256) is the maximum number of live entries;
    raises [Invalid_argument] if it is not positive.  [min_cost]
    (seconds, default 0.001) is the admission floor for {!store}'s
    [cost] argument — pass [0.0] to cache everything. *)

val find : t -> key:string -> epoch:int -> entry option
(** [None] on a miss {e or} on a stale entry (recorded under an older
    epoch than [epoch]); stale entries are evicted on the spot and
    counted under [cache.stale] instead of [cache.misses].  A hit
    refreshes the entry's recency. *)

val store : t -> key:string -> ?cost:float -> entry -> unit
(** Insert or overwrite, evicting the least-recently-used entry when at
    capacity (counted under [cache.evictions]).  With [cost] (the
    seconds it took to compute the answer — the daemon passes it for
    exact-only statements) below the [min_cost] floor, the store is
    skipped and counted under [cache.skipped_cheap] instead: answers
    cheaper than a cache probe never displace a walk-funded entry. *)

val length : t -> int
(** Live entries. *)

val clear : t -> unit
(** Drop every entry (counters are left untouched). *)
