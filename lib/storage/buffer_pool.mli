(** Bounded buffer pool: LRU page cache shared by all paged storage.

    The pool maps [(file, page)] keys to frames of bytes faulted in on
    demand from a registered read-through function ({!register_file} /
    {!read}), evicted least-recently-used.

    A key packs its file id and page into one int, so a hit allocates
    nothing.  File ids must be below 2{^30}, pages non-negative and below
    2{^32}; [Invalid_argument] otherwise.  The reconciliation identity
    [accesses = hits + misses] survives eviction; only [reset_stats] and
    [clear] reset it.

    A pool is single-domain: nothing in it is synchronized. *)

type t

val create : ?page_bytes:int -> capacity:int -> unit -> t
(** [create ?page_bytes ~capacity ()] makes a pool of at most [capacity]
    resident pages.  [page_bytes] (default 256 = 32 rows of 8 bytes)
    sizes its byte frames and must be a positive multiple of 8. *)

val capacity : t -> int
val page_bytes : t -> int

val resident : t -> int
(** Number of currently resident pages. *)

val register_file : t -> (int -> Bytes.t -> unit) -> int
(** [register_file t read] registers a backing file with the pool and
    returns its file id.  [read page buf] must fill [buf] (of length
    [page_bytes t]) with the contents of page [page]. *)

val read : t -> file:int -> page:int -> Bytes.t
(** [read t ~file ~page] returns the frame holding the page, faulting it
    in via the file's registered reader on a miss (evicting the LRU page
    if the pool is full).  The frame is only valid until the next call
    into the pool. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val accesses : t -> int

val reset_stats : t -> unit

val clear : t -> unit
(** Drop every resident page {b and} the statistics. *)
