(** Storage backend selection: in-memory columnar tables, or the same
    tables served from on-disk segments through a bounded
    {!Buffer_pool}.

    The paged backing is observationally identical to the in-memory one
    (same cell values, null sentinels and dictionary ids), so fixed-seed
    walk estimates are bit-for-bit equal under either; what changes is
    that reads fault pages and the pool's hit/miss counters measure real
    I/O instead of simulated I/O. *)

type t =
  | In_memory
  | Paged of { dir : string; pool_pages : int }
      (** [dir]: data directory holding one subdirectory of segment
          files per table (written on first use).  [pool_pages]: buffer
          pool capacity in pages; one page holds
          {!Segment.default_rows_per_page} rows of one column. *)

val page_bytes : int
(** Frame size used for paged backends:
    [Segment.default_rows_per_page * 8]. *)

val paged : ?dir:string -> ?pool_pages:int -> unit -> t
(** [dir] defaults to ["_wjdata"], [pool_pages] to 1024 (256 KiB of
    256-byte frames). *)

val pp : Format.formatter -> t -> unit

val prepare_tables : t -> Table.t list -> Table.t list * Buffer_pool.t option
(** Under [In_memory], the identity.  Under [Paged], writes each table's
    segments to [dir] (skipping already-paged tables), reopens them over
    one fresh shared pool and returns the pool for stats inspection.
    Duplicate list entries (one table bound under two aliases) map to
    one shared paged table. *)

val prepare_catalog : t -> Catalog.t -> Catalog.t * Buffer_pool.t option
(** Same, for every table of a catalog ({!Catalog.map_tables}). *)
