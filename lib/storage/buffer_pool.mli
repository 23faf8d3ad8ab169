(** Bounded buffer pool: LRU page cache shared by all paged storage.

    The pool supports two access modes over one LRU structure and one
    set of hit/miss counters:

    - {b Touch mode} ([touch]) tracks residency of abstract
      [(table, page)] keys without backing bytes.  This is the mode the
      I/O cost simulation ([wj_iosim]) has always used.
    - {b Pager mode} ([register_file] / [pin] / [unpin]) maps
      [(file, page)] keys to frames of bytes faulted in on demand from a
      registered read-through function.  Pinned frames are never
      evicted; unpinned frames are evicted least-recently-used.

    The reconciliation identity [accesses = hits + misses] holds across
    both modes and survives eviction ([evict_all]); only [reset_stats]
    and [clear] reset it. *)

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

val pinned : t -> int
(** Number of resident pages with a nonzero pin count. *)

(** {1 Touch mode (simulation)} *)

val touch : t -> table:int -> page:int -> bool
(** [touch t ~table ~page] records an access; returns [true] on hit
    (page was resident).  On miss the page becomes resident, evicting
    the LRU unpinned page if the pool is full. *)

val contains : t -> table:int -> page:int -> bool

(** {1 Pager mode} *)

val register_file : t -> (int -> Bytes.t -> unit) -> int
(** [register_file t read] registers a backing file with the pool and
    returns its file id.  [read page buf] must fill [buf] (of length
    [page_bytes t]) with the contents of page [page]. *)

val pin : t -> file:int -> page:int -> Bytes.t
(** [pin t ~file ~page] returns the frame holding the page, faulting it
    in via the file's registered reader on a miss.  The frame is pinned
    and will not be evicted until a matching [unpin].  The returned
    bytes are only valid until the unpin.

    @raise Failure if every frame is pinned and one must be evicted. *)

val unpin : t -> file:int -> page:int -> unit
(** Release one pin.  The page stays resident (and cheap to re-pin)
    until evicted by LRU pressure. *)

(** {1 Statistics} *)

val hits : t -> int
val misses : t -> int
val accesses : t -> int

val reset_stats : t -> unit

(** {1 Eviction} *)

val evict_all : t -> unit
(** Drop every unpinned resident page but {b keep} hit/miss counters, so
    [accesses = hits + misses] reconciliation survives a cold restart of
    the cache.  Pinned pages stay resident. *)

val clear : t -> unit
(** [evict_all] followed by [reset_stats]: drop pages {b and}
    statistics. *)
