(** Bounded buffer pool: LRU page cache shared by all paged storage.

    The pool supports two access modes over one LRU structure and one
    set of hit/miss counters:

    - {b Touch mode} ([touch]) tracks residency of abstract
      [(table, page)] keys without backing bytes.  This is the mode the
      I/O cost simulation ([wj_iosim]) has always used.
    - {b Pager mode} ([register_file] / [read]) maps [(file, page)] keys
      to frames of bytes faulted in on demand from a registered
      read-through function, evicted least-recently-used.

    Both modes key one table by one int, so a hit allocates nothing.
    Table and file ids must be non-negative and below 2{^30}, pages
    non-negative and below 2{^32}; [Invalid_argument] otherwise.  The
    reconciliation identity [accesses = hits + misses] holds across both
    modes and survives eviction; only [reset_stats] and [clear] reset
    it.

    A pool is single-domain: nothing in it is synchronized. *)

type t

val create : ?page_bytes:int -> capacity:int -> unit -> t
(** [create ?page_bytes ~capacity ()] makes a pool of at most [capacity]
    resident pages.  [page_bytes] (default 256 = 32 rows of 8 bytes)
    sizes the byte frames used by pager mode and must be a positive
    multiple of 8.  Touch-mode entries occupy a residency slot but no
    frame. *)

val capacity : t -> int
val page_bytes : t -> int

val resident : t -> int
(** Number of currently resident pages (both modes). *)

(** {1 Touch mode (simulation)} *)

val touch : t -> table:int -> page:int -> bool
(** [touch t ~table ~page] records an access; returns [true] on hit
    (page was resident).  On miss the page becomes resident, evicting
    the LRU page if the pool is full. *)

(** {1 Pager mode} *)

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
