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
    is cost-aware: {!store} with a [cost] below a floor of 10,000 exact
    rows visited is skipped — an answer that cheap (about a millisecond
    of enumeration) is cheaper to recompute than to cache.  The cost is
    the exact executor's machine-independent count, so admission does
    not depend on load or hardware.  Counters ([cache.hits] /
    [cache.misses] / [cache.stale] / [cache.evictions] /
    [cache.skipped_cheap] in the registry passed to {!create}) make hit
    rates and the admission policy observable via [GET /stats] and
    [GET /metrics].  Not thread-safe — the daemon serializes access
    under its scheduler mutex. *)

type t

type entry = {
  results : Wj_util.Json.t;  (** the final per-item results array, as streamed *)
  epoch : int;  (** catalog epoch the estimate was computed under *)
}

val create : ?capacity:int -> Wj_obs.Metrics.t -> t
(** [capacity] (default 256) is the maximum number of live entries;
    raises [Invalid_argument] if it is not positive. *)

val find : t -> key:string -> epoch:int -> entry option
(** [None] on a miss {e or} on a stale entry (recorded under an older
    epoch than [epoch]); stale entries are evicted on the spot and
    counted under [cache.stale] instead of [cache.misses].  A hit
    refreshes the entry's recency. *)

val store : t -> key:string -> ?cost:int -> entry -> bool
(** Insert or overwrite, evicting the least-recently-used entry when at
    capacity (counted under [cache.evictions]), and return [true].  With
    [cost] (the exact rows visited to compute the answer — the daemon
    passes it for exact-only statements) below the rows-visited floor,
    the store is skipped, counted under [cache.skipped_cheap], and
    [false] is returned: answers cheaper to recompute than to cache
    never displace a walk-funded entry. *)

val length : t -> int
(** Live entries. *)
