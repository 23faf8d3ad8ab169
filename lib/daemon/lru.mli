(** String-keyed store with least-recently-used eviction: the one LRU
    behind the daemon's estimate cache ({!Estimate_cache}) and its
    retained request traces ([GET /trace/<id>]).

    Recency is a logical clock: {!add} and {!find} stamp the entry, and
    eviction scans for the oldest stamp — O(n) at n ≤ capacity, which
    stays small at the daemon's sizes (hundreds of cached statements,
    tens of trace documents).  Not thread-safe — the daemon serializes
    access under its mutex. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity] is not positive. *)

val find : 'a t -> string -> 'a option
(** The value under the key, refreshing its recency. *)

val add : 'a t -> string -> 'a -> bool
(** Insert or overwrite, stamping the entry most recent.  A new key at
    capacity first evicts the least-recently-used entry; the result says
    whether one was evicted. *)

val remove : 'a t -> string -> unit

val length : 'a t -> int
(** Live entries. *)
