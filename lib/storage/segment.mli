(** Fixed-size-page segment files backing paged tables.

    A segment file is a flat sequence of [page_bytes]-sized pages; the
    writer zero-pads the final page.  Fixed-width values occupy 8-byte
    little-endian slots ([page_bytes / 8] per page); variable-length
    payloads (dict entries, null bitmaps) are raw byte streams read back
    whole with [read_all].  All reads fault through the owning
    {!Buffer_pool}. *)

val default_rows_per_page : int
(** 32 — matches the iosim cost model's [rows_per_page], so one segment
    page of a column is one cost-model page of rows. *)

(** {1 Writing} *)

type writer

val create_writer : string -> page_bytes:int -> writer
val put_int : writer -> int -> unit
val put_float : writer -> float -> unit
val put_bytes : writer -> Bytes.t -> unit

val close_writer : writer -> unit
(** Zero-pads to a page boundary and closes the file. *)

(** {1 Reading} *)

type file

exception Short_read of { path : string; page : int }
(** A page fault found the file ending before [page] does: [path] was
    truncated or replaced after {!open_file}.  Raised by the read that
    faults [page] in. *)

val open_file : Buffer_pool.t -> string -> file
(** Opens a segment file and registers it with the pool; the file's page
    size is the pool's [page_bytes].  Raises [Invalid_argument] when the
    file length is not a page multiple (page-size mismatch). *)

val read_int : file -> int -> int
(** [read_int f i] reads slot [i] with one pool read of its page (a
    fault on a miss). *)

val read_float : file -> int -> float

val read_all : file -> Bytes.t
(** Whole file via sequential page faults — for dict / null payloads
    that are decoded once at open and kept resident. *)
