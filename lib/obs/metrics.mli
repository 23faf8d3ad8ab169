(** Registry of named metric families.

    A [Metrics.t] owns flat int/float arenas out of which {!Counter},
    {!Histogram} and {!Gauge} instances are carved, plus a name table.
    Lookups are find-or-create: asking twice for ["walker.walks"] returns
    the same counter, so independently prepared walkers (optimizer trials,
    parallel domains, hybrid components) sharing one registry accumulate
    into the same cells.

    Registration ([counter]/[histogram]/[gauge]) allocates and is meant
    for setup time; the returned handles are then free of any name lookup
    on the hot path.  Read a consistent-enough view with {!Snapshot}.

    {!scoped} derives a prefixing view of the same registry, so one
    shared registry can hold per-session families (["session3.walker.walks"])
    without the producers knowing they are scoped. *)

type t

val create : unit -> t
(** A fresh registry with no families and an empty scope prefix. *)

val scoped : t -> string -> t
(** [scoped t name] is a view of the same registry that prefixes every
    family name with ["<name>."] (on top of [t]'s own prefix, so scopes
    nest).  All views share one arena and one name table: a family created
    through any view is visible to {!families} and {!Snapshot} on every
    view.  Raises [Invalid_argument] on an empty scope name. *)

val prefix : t -> string
(** The accumulated scope prefix of this view ([""] for an unscoped
    registry). *)

val counter : t -> string -> Counter.t
(** Find-or-create.  Raises [Invalid_argument] when the name is already
    registered as a different family kind. *)

val histogram : t -> ?buckets:int -> string -> Histogram.t
(** Find-or-create; [buckets] (default 32) only applies on creation — a
    later request with a different bucket count returns the existing
    histogram unchanged (observations clamp). *)

val gauge : t -> string -> Gauge.t
(** Find-or-create.  Raises [Invalid_argument] on a kind mismatch. *)

type family =
  | Counter of Counter.t
  | Histogram of Histogram.t
  | Gauge of Gauge.t

val families : t -> (string * family) list
(** All registered families, sorted by name. *)

val merge : into:t -> t -> unit
(** Fold the source registry's families into [into] (find-or-create,
    under [into]'s prefix): counters and histogram buckets {e add},
    gauges take the source's current value.  Iterates {!families} — name
    order — so a fixed merge sequence registers cells deterministically.
    The domain-sharded scheduler calls this at its join barrier, in shard
    order, to combine per-domain registries into the submitter-visible
    one.  Raises [Invalid_argument] on a kind mismatch between same-named
    families. *)
