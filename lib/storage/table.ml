module Int_vec = Wj_util.Int_vec
module Float_vec = Wj_util.Float_vec
module Bitset = Wj_util.Bitset

type strcol = {
  ids : Int_vec.t; (* dictionary id per row; sentinel 0/-1 under a null bit *)
  pool : string Wj_util.Vec.t; (* id -> string *)
  dict : (string, int) Hashtbl.t; (* string -> id *)
}

type pstrcol = {
  pids : Segment.file; (* dictionary id per row, 8-byte slots *)
  ppool : string array; (* id -> string; decoded once at open *)
  pdict : (string, int) Hashtbl.t; (* string -> id *)
}

type col =
  | Icol of Int_vec.t
  | Fcol of Float_vec.t
  | Scol of strcol
  | Picol of Segment.file (* paged int column *)
  | Pfcol of Segment.file (* paged float column *)
  | Pscol of pstrcol (* paged string column *)

type t = {
  name : string;
  schema : Schema.t;
  cols : col array;
  nulls : Bitset.t array; (* per column; bit set = NULL at that row *)
  mutable nrows : int;
}

let create ?(capacity = 1024) ~name ~schema () =
  let cols =
    Array.init (Schema.arity schema) (fun i ->
        match Schema.ty_of schema i with
        | Value.TInt -> Icol (Int_vec.create ~capacity ())
        | Value.TFloat -> Fcol (Float_vec.create ~capacity ())
        | Value.TStr ->
          Scol
            {
              ids = Int_vec.create ~capacity ();
              pool = Wj_util.Vec.create ();
              dict = Hashtbl.create 64;
            })
  in
  {
    name;
    schema;
    cols;
    nulls = Array.init (Schema.arity schema) (fun _ -> Bitset.create ());
    nrows = 0;
  }

let name t = t.name
let schema t = t.schema
let length t = t.nrows

let cell_error t ~row ~col what =
  invalid_arg
    (Printf.sprintf "Table.%s: %s.%s row %d" what t.name
       (Schema.column t.schema col).Schema.name row)

let col_length t c =
  match t.cols.(c) with
  | Icol v -> Int_vec.length v
  | Fcol v -> Float_vec.length v
  | Scol s -> Int_vec.length s.ids
  | Picol _ | Pfcol _ | Pscol _ -> t.nrows

let is_paged t =
  Array.exists (function Picol _ | Pfcol _ | Pscol _ -> true | _ -> false) t.cols

let read_only_error t what =
  invalid_arg (Printf.sprintf "Table.%s(%s): paged table is read-only" what t.name)

(* ---- Typed column writers -------------------------------------------- *)

let push_error t ~col what =
  invalid_arg
    (Printf.sprintf "Table.%s(%s): column %s is %s" what t.name
       (Schema.column t.schema col).Schema.name
       (match Schema.ty_of t.schema col with
       | Value.TInt -> "int"
       | Value.TFloat -> "float"
       | Value.TStr -> "str"))

let push_int t ~col v =
  match t.cols.(col) with
  | Icol c -> Int_vec.push c v
  | Picol _ | Pfcol _ | Pscol _ -> read_only_error t "push_int"
  | Fcol _ | Scol _ -> push_error t ~col "push_int"

let push_float t ~col v =
  match t.cols.(col) with
  | Fcol c -> Float_vec.push c v
  | Picol _ | Pfcol _ | Pscol _ -> read_only_error t "push_float"
  | Icol _ | Scol _ -> push_error t ~col "push_float"

let intern s str =
  match Hashtbl.find_opt s.dict str with
  | Some id -> id
  | None ->
    let id = Wj_util.Vec.length s.pool in
    Wj_util.Vec.push s.pool str;
    Hashtbl.add s.dict str id;
    id

let push_str t ~col v =
  match t.cols.(col) with
  | Scol s -> Int_vec.push s.ids (intern s v)
  | Picol _ | Pfcol _ | Pscol _ -> read_only_error t "push_str"
  | Icol _ | Fcol _ -> push_error t ~col "push_str"

let push_null t ~col =
  (match t.cols.(col) with
  | Icol c ->
    Bitset.set t.nulls.(col) (Int_vec.length c);
    Int_vec.push c 0
  | Fcol c ->
    Bitset.set t.nulls.(col) (Float_vec.length c);
    Float_vec.push c 0.0
  | Scol s ->
    Bitset.set t.nulls.(col) (Int_vec.length s.ids);
    Int_vec.push s.ids (-1)
  | Picol _ | Pfcol _ | Pscol _ -> read_only_error t "push_null");
  ()

let commit_row t =
  let want = t.nrows + 1 in
  Array.iteri
    (fun c _ ->
      if col_length t c <> want then
        invalid_arg
          (Printf.sprintf
             "Table.commit_row(%s): column %s holds %d values for row %d" t.name
             (Schema.column t.schema c).Schema.name
             (col_length t c - t.nrows)
             t.nrows))
    t.cols;
  t.nrows <- want;
  want - 1

let rollback_row t =
  Array.iteri
    (fun c _ ->
      let extra = col_length t c - t.nrows in
      if extra > 0 then begin
        for i = t.nrows to t.nrows + extra - 1 do
          Bitset.clear t.nulls.(c) i
        done;
        match t.cols.(c) with
        | Icol v -> Int_vec.truncate v t.nrows
        | Fcol v -> Float_vec.truncate v t.nrows
        | Scol s -> Int_vec.truncate s.ids t.nrows
        | Picol _ | Pfcol _ | Pscol _ -> ()
      end)
    t.cols

(* ---- Value.t compatibility shim --------------------------------------- *)

let insert t row =
  if not (Schema.check_tuple t.schema row) then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): tuple does not match schema" t.name);
  Array.iteri
    (fun col v ->
      match v with
      | Value.Null -> push_null t ~col
      | Value.Int n -> push_int t ~col n
      | Value.Float f -> push_float t ~col f
      | Value.Str s -> push_str t ~col s)
    row;
  commit_row t

let is_null t row col = Bitset.mem t.nulls.(col) row

let check_row t row what =
  if row < 0 || row >= t.nrows then
    invalid_arg (Printf.sprintf "Table.%s(%s): row %d out of bounds" what t.name row)

let cell t row col =
  check_row t row "cell";
  if is_null t row col then Value.Null
  else
    match t.cols.(col) with
    | Icol v -> Value.Int (Int_vec.get v row)
    | Fcol v -> Value.Float (Float_vec.get v row)
    | Scol s -> Value.Str (Wj_util.Vec.get s.pool (Int_vec.get s.ids row))
    | Picol f -> Value.Int (Segment.read_int f row)
    | Pfcol f -> Value.Float (Segment.read_float f row)
    | Pscol p -> Value.Str p.ppool.(Segment.read_int p.pids row)

let row t i =
  check_row t i "row";
  Array.init (Array.length t.cols) (fun c -> cell t i c)

let int_cell t row col =
  match t.cols.(col) with
  | Icol v ->
    if is_null t row col then cell_error t ~row ~col "int_cell: NULL in"
    else Int_vec.get v row
  | Picol f ->
    if is_null t row col then cell_error t ~row ~col "int_cell: NULL in"
    else Segment.read_int f row
  | Fcol _ | Scol _ | Pfcol _ | Pscol _ ->
    cell_error t ~row ~col "int_cell: non-int column"

let float_cell t row col =
  match t.cols.(col) with
  | Fcol v ->
    if is_null t row col then cell_error t ~row ~col "float_cell: NULL in"
    else Float_vec.get v row
  | Icol v ->
    if is_null t row col then cell_error t ~row ~col "float_cell: NULL in"
    else float_of_int (Int_vec.get v row)
  | Pfcol f ->
    if is_null t row col then cell_error t ~row ~col "float_cell: NULL in"
    else Segment.read_float f row
  | Picol f ->
    if is_null t row col then cell_error t ~row ~col "float_cell: NULL in"
    else float_of_int (Segment.read_int f row)
  | Scol _ | Pscol _ -> cell_error t ~row ~col "float_cell: non-numeric column"

let iteri f t =
  for i = 0 to t.nrows - 1 do
    f i (row t i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.nrows - 1 do
    acc := f !acc (row t i)
  done;
  !acc

let column_index t name = Schema.find_exn t.schema name

(* ---- Column cursors --------------------------------------------------- *)

type cursor =
  | Int_cursor of int array
  | Float_cursor of float array
  | Str_cursor of int array * string array
  | Paged_int_cursor of (int -> int)
  | Paged_float_cursor of (int -> float)
  | Paged_str_cursor of (int -> int) * string array

let cursor t col =
  match t.cols.(col) with
  | Icol v -> Int_cursor (Int_vec.data v)
  | Fcol v -> Float_cursor (Float_vec.data v)
  | Scol s -> Str_cursor (Int_vec.data s.ids, Wj_util.Vec.to_array s.pool)
  | Picol f -> Paged_int_cursor (fun row -> Segment.read_int f row)
  | Pfcol f -> Paged_float_cursor (fun row -> Segment.read_float f row)
  | Pscol p -> Paged_str_cursor ((fun row -> Segment.read_int p.pids row), p.ppool)

let null_mask t col = t.nulls.(col)

let dict_id t ~col s =
  match t.cols.(col) with
  | Scol sc -> Hashtbl.find_opt sc.dict s
  | Pscol p -> Hashtbl.find_opt p.pdict s
  | Icol _ | Fcol _ | Picol _ | Pfcol _ -> push_error t ~col "dict_id"

let int_reader t col =
  match t.cols.(col) with
  | Icol v ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "int_reader: NULL in"
        else Int_vec.get v row
    end
    else fun row -> Int_vec.get v row
  | Picol f ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "int_reader: NULL in"
        else Segment.read_int f row
    end
    else fun row -> Segment.read_int f row
  | Fcol _ | Scol _ | Pfcol _ | Pscol _ ->
    fun row -> cell_error t ~row ~col "int_reader: non-int column"

let float_reader t col =
  match t.cols.(col) with
  | Fcol v ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "float_reader: NULL in"
        else Float_vec.get v row
    end
    else fun row -> Float_vec.get v row
  | Icol v ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "float_reader: NULL in"
        else float_of_int (Int_vec.get v row)
    end
    else fun row -> float_of_int (Int_vec.get v row)
  | Pfcol f ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "float_reader: NULL in"
        else Segment.read_float f row
    end
    else fun row -> Segment.read_float f row
  | Picol f ->
    if Bitset.any t.nulls.(col) then begin
      let nulls = t.nulls.(col) in
      fun row ->
        if Bitset.mem nulls row then cell_error t ~row ~col "float_reader: NULL in"
        else float_of_int (Segment.read_int f row)
    end
    else fun row -> float_of_int (Segment.read_int f row)
  | Scol _ | Pscol _ ->
    fun row -> cell_error t ~row ~col "float_reader: non-numeric column"

(* ---- On-disk paged format --------------------------------------------- *)

(* Directory layout, one subdirectory per table:

     <dir>/<name>/superblock     text: magic, nrows, rows_per_page, schema
     <dir>/<name>/col<i>.dat     8-byte slots (int64 / float bits / dict ids)
     <dir>/<name>/col<i>.nulls   null bitmap, 1 bit per row, LSB-first
     <dir>/<name>/col<i>.dict    TStr only: count, then (len, bytes) entries

   All .dat/.nulls/.dict files are zero-padded to page multiples and read
   back through the shared buffer pool.  The superblock is a few dozen
   bytes of metadata and is read directly. *)

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let ty_tag = function
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TStr -> "str"

let ty_of_tag = function
  | "int" -> Value.TInt
  | "float" -> Value.TFloat
  | "str" -> Value.TStr
  | tag -> invalid_arg ("Table: bad superblock column type " ^ tag)

let table_dir ~dir ~name = Filename.concat dir name
let col_path tdir i ext = Filename.concat tdir (Printf.sprintf "col%d.%s" i ext)

let write_null_file t ~col path ~page_bytes =
  let w = Segment.create_writer path ~page_bytes in
  let nulls = t.nulls.(col) in
  let nbytes = (t.nrows + 7) / 8 in
  let packed = Bytes.make nbytes '\000' in
  for row = 0 to t.nrows - 1 do
    if Bitset.mem nulls row then begin
      let b = Char.code (Bytes.get packed (row / 8)) in
      Bytes.set packed (row / 8) (Char.chr (b lor (1 lsl (row mod 8))))
    end
  done;
  Segment.put_bytes w packed;
  Segment.close_writer w

let write_pages t ~dir =
  if is_paged t then read_only_error t "write_pages";
  let rows_per_page = Segment.default_rows_per_page in
  let page_bytes = rows_per_page * 8 in
  let tdir = table_dir ~dir ~name:t.name in
  mkdir_p tdir;
  let oc = Out_channel.open_text (Filename.concat tdir "superblock") in
  Printf.fprintf oc "wjseg 1\nname %S\nnrows %d\nrows_per_page %d\ncols %d\n"
    t.name t.nrows rows_per_page (Array.length t.cols);
  Array.iteri
    (fun i _ ->
      let c = Schema.column t.schema i in
      Printf.fprintf oc "col %S %s\n" c.Schema.name (ty_tag c.Schema.ty))
    t.cols;
  Out_channel.close oc;
  Array.iteri
    (fun i col ->
      let w = Segment.create_writer (col_path tdir i "dat") ~page_bytes in
      (match col with
      | Icol v ->
        for row = 0 to t.nrows - 1 do
          Segment.put_int w (Int_vec.get v row)
        done
      | Fcol v ->
        for row = 0 to t.nrows - 1 do
          Segment.put_float w (Float_vec.get v row)
        done
      | Scol s ->
        for row = 0 to t.nrows - 1 do
          Segment.put_int w (Int_vec.get s.ids row)
        done;
        let dw = Segment.create_writer (col_path tdir i "dict") ~page_bytes in
        Segment.put_int dw (Wj_util.Vec.length s.pool);
        for id = 0 to Wj_util.Vec.length s.pool - 1 do
          let str = Wj_util.Vec.get s.pool id in
          Segment.put_int dw (String.length str);
          Segment.put_bytes dw (Bytes.of_string str)
        done;
        Segment.close_writer dw
      | Picol _ | Pfcol _ | Pscol _ -> assert false);
      Segment.close_writer w;
      write_null_file t ~col:i (col_path tdir i "nulls") ~page_bytes)
    t.cols

let read_superblock path =
  let ic = In_channel.open_text path in
  let line () =
    match In_channel.input_line ic with
    | Some l -> l
    | None -> invalid_arg ("Table: truncated superblock " ^ path)
  in
  let magic = line () in
  if magic <> "wjseg 1" then
    invalid_arg (Printf.sprintf "Table: bad superblock magic %S in %s" magic path);
  let name = Scanf.sscanf (line ()) "name %S" (fun s -> s) in
  let nrows = Scanf.sscanf (line ()) "nrows %d" (fun n -> n) in
  let rows_per_page = Scanf.sscanf (line ()) "rows_per_page %d" (fun n -> n) in
  let ncols = Scanf.sscanf (line ()) "cols %d" (fun n -> n) in
  let cols =
    List.init ncols (fun _ ->
        Scanf.sscanf (line ()) "col %S %s" (fun n ty ->
            { Schema.name = n; Schema.ty = ty_of_tag ty }))
  in
  In_channel.close ic;
  (name, nrows, rows_per_page, cols)

let read_nulls file ~nrows =
  let nulls = Bitset.create () in
  if nrows > 0 then begin
    let packed = Segment.read_all file in
    for row = 0 to nrows - 1 do
      if Char.code (Bytes.get packed (row / 8)) land (1 lsl (row mod 8)) <> 0 then
        Bitset.set nulls row
    done
  end;
  nulls

let read_dict file =
  let raw = Segment.read_all file in
  let count = Int64.to_int (Bytes.get_int64_le raw 0) in
  let pool = Array.make count "" in
  let dict = Hashtbl.create (max 16 count) in
  let off = ref 8 in
  for id = 0 to count - 1 do
    let len = Int64.to_int (Bytes.get_int64_le raw !off) in
    let s = Bytes.sub_string raw (!off + 8) len in
    pool.(id) <- s;
    Hashtbl.add dict s id;
    off := !off + 8 + len
  done;
  (pool, dict)

let open_paged ~pool ~dir ~name =
  let tdir = table_dir ~dir ~name in
  let sb_name, nrows, rows_per_page, sb_cols =
    read_superblock (Filename.concat tdir "superblock")
  in
  if sb_name <> name then
    invalid_arg
      (Printf.sprintf "Table.open_paged: directory %s holds table %S, not %S" tdir
         sb_name name);
  if rows_per_page * 8 <> Buffer_pool.page_bytes pool then
    invalid_arg
      (Printf.sprintf
         "Table.open_paged(%s): segments use %d rows/page (%d-byte pages) but \
          the pool's frames are %d bytes"
         name rows_per_page (rows_per_page * 8)
         (Buffer_pool.page_bytes pool));
  let schema = Schema.make sb_cols in
  let cols =
    Array.init (Schema.arity schema) (fun i ->
        let dat = Segment.open_file pool (col_path tdir i "dat") in
        match Schema.ty_of schema i with
        | Value.TInt -> Picol dat
        | Value.TFloat -> Pfcol dat
        | Value.TStr ->
          let ppool, pdict = read_dict (Segment.open_file pool (col_path tdir i "dict")) in
          Pscol { pids = dat; ppool; pdict })
  in
  let nulls =
    Array.init (Schema.arity schema) (fun i ->
        read_nulls (Segment.open_file pool (col_path tdir i "nulls")) ~nrows)
  in
  { name; schema; cols; nulls; nrows }
