type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

exception Bad_request of string

let max_head_bytes = 16 * 1024
let max_body_bytes = 8 * 1024 * 1024

(* ---- low-level IO ----------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Buffered reader: header parsing needs lines, bodies need exact byte
   counts, and both may straddle reads. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable start : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 8192; start = 0; len = 0 }

(* Returns false on EOF. *)
let refill r =
  if r.len = 0 then r.start <- 0
  else if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 r.len;
    r.start <- 0
  end;
  if r.len >= Bytes.length r.buf then
    raise (Bad_request "line too long");
  let n = Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + n;
  n > 0

(* One CRLF- (or bare-LF-) terminated line, without the terminator.
   [None] on EOF at a line boundary. *)
let read_line r =
  let rec find_nl from =
    let limit = r.start + r.len in
    let rec scan i = if i >= limit then None else if Bytes.get r.buf i = '\n' then Some i else scan (i + 1) in
    match scan (r.start + from) with
    | Some i -> Some i
    | None ->
      (* Resume the scan where it left off: [refill] compacts to
         [start = 0] but keeps offsets relative to [start] valid. *)
      let scanned = r.len in
      if refill r then find_nl scanned else None
  in
  match find_nl 0 with
  | Some nl ->
    let len = nl - r.start in
    let len = if len > 0 && Bytes.get r.buf (nl - 1) = '\r' then len - 1 else len in
    let line = Bytes.sub_string r.buf r.start len in
    let consumed = nl - r.start + 1 in
    r.start <- r.start + consumed;
    r.len <- r.len - consumed;
    Some line
  | None -> if r.len = 0 then None else raise (Bad_request "truncated line")

let read_exactly r n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.len = 0 && not (refill r) then raise (Bad_request "truncated body");
    let take = min r.len (n - !filled) in
    Bytes.blit r.buf r.start out !filled take;
    r.start <- r.start + take;
    r.len <- r.len - take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

(* ---- URL decoding ----------------------------------------------------- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Bad_request "bad percent escape")

let urldecode s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    (match s.[!i] with
    | '%' when !i + 2 < String.length s ->
      Buffer.add_char buf (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
      i := !i + 2
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let split_target target =
  let path, qs =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some i ->
      (String.sub target 0 i, String.sub target (i + 1) (String.length target - i - 1))
  in
  let query =
    if qs = "" then []
    else
      List.filter_map
        (fun pair ->
          if pair = "" then None
          else
            match String.index_opt pair '=' with
            | None -> Some (urldecode pair, "")
            | Some i ->
              Some
                ( urldecode (String.sub pair 0 i),
                  urldecode (String.sub pair (i + 1) (String.length pair - i - 1)) ))
        (String.split_on_char '&' qs)
  in
  (urldecode path, query)

(* ---- request parsing -------------------------------------------------- *)

let parse_headers r =
  let rec go acc seen =
    match read_line r with
    | None -> raise (Bad_request "truncated headers")
    | Some "" -> List.rev acc
    | Some line ->
      let seen = seen + String.length line in
      if seen > max_head_bytes then raise (Bad_request "headers too large");
      (match String.index_opt line ':' with
      | None -> raise (Bad_request "malformed header")
      | Some i ->
        let name = String.lowercase_ascii (String.sub line 0 i) in
        let value =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        go ((name, value) :: acc) seen)
  in
  go [] 0

let read_request fd =
  let r = reader fd in
  match read_line r with
  | None -> None
  | Some line -> (
    match String.split_on_char ' ' line with
    | [ meth; target; version ]
      when version = "HTTP/1.1" || version = "HTTP/1.0" ->
      let headers = parse_headers r in
      let body =
        match List.assoc_opt "content-length" headers with
        | None -> ""
        | Some v -> (
          match int_of_string_opt (String.trim v) with
          | Some n when n >= 0 && n <= max_body_bytes -> read_exactly r n
          | Some _ -> raise (Bad_request "body too large")
          | None -> raise (Bad_request "bad content-length"))
      in
      let path, query = split_target target in
      Some { meth = String.uppercase_ascii meth; path; query; headers; body }
    | _ -> raise (Bad_request "malformed request line"))

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

(* ---- trace context ----------------------------------------------------- *)

let trace_header = "x-wj-trace"

let trace_counter = Atomic.make 0

let gen_trace_id () =
  Printf.sprintf "wj-%d-%06x" (Unix.getpid ()) (Atomic.fetch_and_add trace_counter 1)

(* Accepted ids are path- and log-safe or they are replaced: the id is
   echoed in a response header, becomes a [/trace/<id>] path segment and
   an access-log field, so anything outside [A-Za-z0-9._-] (or overlong)
   falls back to a generated one rather than escaping into those
   contexts. *)
let request_trace_id req =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  match header req trace_header with
  | Some id when id <> "" && String.length id <= 128 && String.for_all ok id -> id
  | _ -> gen_trace_id ()

(* ---- responses -------------------------------------------------------- *)

let status_reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let head ~status ~headers =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_reason status));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.contents buf

let respond fd ~status ?(headers = []) ?(content_type = "application/json") body =
  let headers =
    headers
    @ [
        ("content-type", content_type);
        ("content-length", string_of_int (String.length body));
        ("connection", "close");
      ]
  in
  write_all fd (head ~status ~headers ^ body)

let start_chunked fd ~status ?(headers = []) ?(content_type = "application/json")
    () =
  let headers =
    headers
    @ [
        ("content-type", content_type);
        ("transfer-encoding", "chunked");
        ("connection", "close");
      ]
  in
  write_all fd (head ~status ~headers)

let write_chunk fd data =
  if String.length data > 0 then
    write_all fd (Printf.sprintf "%x\r\n%s\r\n" (String.length data) data)

let finish_chunked fd = write_all fd "0\r\n\r\n"

(* ---- client ----------------------------------------------------------- *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

let parse_url url =
  let prefix = "http://" in
  if not (String.length url > String.length prefix
          && String.sub url 0 (String.length prefix) = prefix) then
    invalid_arg ("Http.fetch: expected http:// URL, got " ^ url);
  let rest = String.sub url 7 (String.length url - 7) in
  let hostport, target =
    match String.index_opt rest '/' with
    | None -> (rest, "/")
    | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
  in
  let host, port =
    match String.index_opt hostport ':' with
    | None -> (hostport, 80)
    | Some i -> (
      let h = String.sub hostport 0 i in
      match
        int_of_string_opt
          (String.sub hostport (i + 1) (String.length hostport - i - 1))
      with
      | Some p -> (h, p)
      | None -> invalid_arg "Http.fetch: bad port")
  in
  (host, port, target)

let read_chunked r on_chunk =
  let buf = Buffer.create 1024 in
  let rec go () =
    match read_line r with
    | None -> raise (Bad_request "truncated chunked body")
    | Some size_line -> (
      let size_str =
        match String.index_opt size_line ';' with
        | None -> size_line
        | Some i -> String.sub size_line 0 i
      in
      match int_of_string_opt ("0x" ^ String.trim size_str) with
      | None -> raise (Bad_request "bad chunk size")
      | Some 0 ->
        (* Trailers (we send none) up to the blank line. *)
        let rec trailers () =
          match read_line r with
          | None | Some "" -> ()
          | Some _ -> trailers ()
        in
        trailers ()
      | Some n ->
        let data = read_exactly r n in
        (match read_line r with
        | Some "" -> ()
        | _ -> raise (Bad_request "missing chunk terminator"));
        Buffer.add_string buf data;
        (match on_chunk with Some f -> f data | None -> ());
        go ())
  in
  go ();
  Buffer.contents buf

let fetch ?meth ?(req_headers = []) ?body ?on_chunk url =
  let host, port, target = parse_url url in
  let meth =
    match meth with Some m -> m | None -> if body = None then "GET" else "POST"
  in
  let addr =
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "getaddrinfo", host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      let body_str = Option.value body ~default:"" in
      let headers =
        [ ("host", Printf.sprintf "%s:%d" host port) ]
        @ req_headers
        @ (if body = None then []
           else [ ("content-length", string_of_int (String.length body_str)) ])
        @ [ ("connection", "close") ]
      in
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        headers;
      Buffer.add_string buf "\r\n";
      Buffer.add_string buf body_str;
      write_all fd (Buffer.contents buf);
      let r = reader fd in
      let status =
        match read_line r with
        | None -> raise (Bad_request "empty response")
        | Some line -> (
          match String.split_on_char ' ' line with
          | _version :: code :: _ -> (
            match int_of_string_opt code with
            | Some s -> s
            | None -> raise (Bad_request "bad status line"))
          | _ -> raise (Bad_request "bad status line"))
      in
      let resp_headers = parse_headers r in
      let resp_body =
        match List.assoc_opt "transfer-encoding" resp_headers with
        | Some te when String.lowercase_ascii te = "chunked" ->
          read_chunked r on_chunk
        | _ -> (
          match List.assoc_opt "content-length" resp_headers with
          | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 -> read_exactly r n
            | _ -> raise (Bad_request "bad content-length"))
          | None ->
            (* Read to EOF (Connection: close framing). *)
            let out = Buffer.create 1024 in
            (try
               while true do
                 if r.len = 0 && not (refill r) then raise Exit;
                 Buffer.add_subbytes out r.buf r.start r.len;
                 r.start <- 0;
                 r.len <- 0
               done
             with Exit -> ());
            Buffer.contents out)
      in
      { status; resp_headers; resp_body })
