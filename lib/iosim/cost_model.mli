(** Storage cost model for the limited-memory simulation (Fig. 13).

    The paper's external-memory experiments ran 10-40 GB of data against a
    4 GB machine; the phenomenon they exhibit — random walks pay a random
    I/O per step once data outgrows RAM, scans pay cheap sequential I/O per
    page — is reproduced here with a paged cost model:

    - tables are split into pages of [rows_per_page] rows;
    - a buffer-pool hit costs [ram_access]; a miss costs [random_io];
    - full scans stream at [seq_io] per page regardless of the pool.

    The default constants approximate a 2016-era SATA disk against DRAM
    (100 us random I/O, 10 us sequential page transfer, 0.2 us per in-memory
    tuple touch), matching the order-of-magnitude ratios behind Fig. 13. *)

type t = {
  rows_per_page : int;
  ram_access : float;  (** seconds per in-memory tuple access *)
  random_io : float;  (** seconds per buffer-pool miss *)
  seq_io : float;  (** seconds per sequentially scanned page *)
  index_level_cost : float;
      (** seconds per abstract index-entry access ({!Wj_index.Index.count_cost}
          unit): an equality locate on a one-column index reports 1 access
          (its key-directory lookup), any other locate
          [levels x ceil(log2 n)], one per binary-search step. *)
}

val default : t

val pages_of_rows : t -> int -> int
(** Number of pages a table of the given row count occupies. *)

val scan_seconds : t -> rows:int -> float
(** Cost of a full sequential scan. *)
