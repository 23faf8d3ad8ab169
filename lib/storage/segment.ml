(* Fixed-size-page segment files: the on-disk unit behind paged tables.

   A segment file is a flat sequence of pages, each [page_bytes] long;
   the writer zero-pads the final page so the read side never sees a
   short page.  Values are 8-byte little-endian slots (int64 for ints,
   IEEE-754 bits for floats), [page_bytes / 8] per page, so a row index
   maps to (page, slot) with one division.  Variable-length payloads
   (dict entries, null bitmaps) are written as raw bytes into the same
   page stream and read back with [read_all]. *)

let default_rows_per_page = 32

type writer = {
  oc : Out_channel.t;
  w_page_bytes : int;
  mutable written : int; (* payload bytes so far *)
}

let create_writer path ~page_bytes =
  if page_bytes <= 0 || page_bytes mod 8 <> 0 then
    invalid_arg "Segment.create_writer: page_bytes must be a positive multiple of 8";
  { oc = Out_channel.open_bin path; w_page_bytes = page_bytes; written = 0 }

let scratch8 = Bytes.create 8

let put_int w v =
  Bytes.set_int64_le scratch8 0 (Int64.of_int v);
  Out_channel.output_bytes w.oc scratch8;
  w.written <- w.written + 8

let put_float w v =
  Bytes.set_int64_le scratch8 0 (Int64.bits_of_float v);
  Out_channel.output_bytes w.oc scratch8;
  w.written <- w.written + 8

let put_bytes w b =
  Out_channel.output_bytes w.oc b;
  w.written <- w.written + Bytes.length b

let close_writer w =
  let rem = w.written mod w.w_page_bytes in
  if rem > 0 then
    Out_channel.output_bytes w.oc (Bytes.make (w.w_page_bytes - rem) '\000');
  Out_channel.close w.oc

type file = {
  pool : Buffer_pool.t;
  fid : int;
  page_bytes : int;
  slots_per_page : int;
  length : int; (* payload view: total bytes on disk (page multiple) *)
  path : string;
}

exception Short_read of { path : string; page : int }

let () =
  Printexc.register_printer (function
    | Short_read { path; page } ->
      Some (Printf.sprintf "Segment.Short_read: %s ends before page %d" path page)
    | _ -> None)

let open_file pool path =
  let ic = In_channel.open_bin path in
  let length = Int64.to_int (In_channel.length ic) in
  let page_bytes = Buffer_pool.page_bytes pool in
  if length mod page_bytes <> 0 then
    invalid_arg
      (Printf.sprintf
         "Segment.open_file: %s length %d is not a multiple of page size %d \
          (was it written with a different rows_per_page?)"
         path length page_bytes);
  let read page buf =
    In_channel.seek ic (Int64.of_int (page * page_bytes));
    match In_channel.really_input ic buf 0 page_bytes with
    | Some () -> ()
    | None -> raise (Short_read { path; page })
  in
  let fid = Buffer_pool.register_file pool read in
  { pool; fid; page_bytes; slots_per_page = page_bytes / 8; length; path }

let pages f = f.length / f.page_bytes

let read_int f i =
  let frame = Buffer_pool.read f.pool ~file:f.fid ~page:(i / f.slots_per_page) in
  Int64.to_int (Bytes.get_int64_le frame (i mod f.slots_per_page * 8))

let read_float f i =
  let frame = Buffer_pool.read f.pool ~file:f.fid ~page:(i / f.slots_per_page) in
  Int64.float_of_bits (Bytes.get_int64_le frame (i mod f.slots_per_page * 8))

(* Sequential paged read of the whole file, faulting every page through
   the pool (so warm-up I/O shows in the counters like any other read). *)
let read_all f =
  let out = Bytes.create f.length in
  for page = 0 to pages f - 1 do
    let frame = Buffer_pool.read f.pool ~file:f.fid ~page in
    Bytes.blit frame 0 out (page * f.page_bytes) f.page_bytes
  done;
  out
