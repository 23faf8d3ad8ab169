(** Storage cost model for the limited-memory simulation (Fig. 13).

    The paper's external-memory experiments ran 10-40 GB of data against a
    4 GB machine; the phenomenon they exhibit — random walks pay a random
    I/O per step once data outgrows RAM, scans pay cheap sequential I/O per
    page — is reproduced here with a paged cost model:

    - a walk's abstract steps (index-entry accesses and tuple fetches)
      cost [ram_access] each, and each buffer-pool fault turns one of them
      into a [random_io];
    - tables are split into pages of [rows_per_page] rows, and full scans
      stream at [seq_io] per page regardless of the pool.

    The default constants approximate a 2016-era SATA disk against DRAM
    (100 us random I/O, 10 us sequential page transfer, 0.2 us per in-memory
    access), matching the order-of-magnitude ratios behind Fig. 13. *)

type t = {
  rows_per_page : int;
  ram_access : float;  (** seconds per in-memory access *)
  random_io : float;  (** seconds per buffer-pool miss *)
  seq_io : float;  (** seconds per sequentially scanned page *)
}

val default : t

val scan_seconds : t -> rows:int -> float
(** Cost of a full sequential scan: one [seq_io] per page, the last page
    partial. *)
