(* Storage backend switch: every run either reads the in-memory columnar
   tables directly, or swaps each table for a segment-backed twin whose
   data pages fault through one shared buffer pool.  The two backings
   are observationally identical (same values, null sentinels and
   dictionary ids), so fixed-seed estimates are bit-for-bit equal; only
   the I/O behaviour differs, which is the point. *)

type t =
  | In_memory
  | Paged of { dir : string; pool_pages : int }

let default_dir = "_wjdata"
let default_pool_pages = 1024

let page_bytes = Segment.default_rows_per_page * 8

let paged ?(dir = default_dir) ?(pool_pages = default_pool_pages) () =
  Paged { dir; pool_pages }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp_dir prefix =
  let dir = Filename.temp_dir prefix "" in
  at_exit (fun () -> if Sys.file_exists dir then remove_tree dir);
  dir

let pp fmt = function
  | In_memory -> Format.fprintf fmt "in-memory"
  | Paged { dir; pool_pages } ->
    Format.fprintf fmt "paged(dir=%s, pool=%d pages)" dir pool_pages

(* Memoized table -> paged-table map over one shared pool.  Dedupe is by
   name: a query binding the same physical table under two aliases
   (Q7's nation/nation) must keep sharing one paged table, and a table
   must not be written out twice. *)
let pager ~dir pool =
  let cache = Hashtbl.create 8 in
  fun tbl ->
    let name = Table.name tbl in
    match Hashtbl.find_opt cache name with
    | Some paged -> paged
    | None ->
      let paged =
        if Table.is_paged tbl then tbl
        else begin
          Table.write_pages tbl ~dir;
          Table.open_paged ~pool ~dir ~name
        end
      in
      Hashtbl.add cache name paged;
      paged

let prepare_tables backend tables =
  match backend with
  | In_memory -> (tables, None)
  | Paged { dir; pool_pages } ->
    let pool = Buffer_pool.create ~page_bytes ~capacity:pool_pages () in
    (List.map (pager ~dir pool) tables, Some pool)

let prepare_catalog backend catalog =
  match backend with
  | In_memory -> (catalog, None)
  | Paged { dir; pool_pages } ->
    let pool = Buffer_pool.create ~page_bytes ~capacity:pool_pages () in
    (Catalog.map_tables catalog (pager ~dir pool), Some pool)
