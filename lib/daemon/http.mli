(** Minimal HTTP/1.1 over [Unix] file descriptors — just enough protocol
    for the daemon and its clients, with no external dependencies.

    Server side: parse one request ({!read_request}), answer with either
    a fixed body ({!respond}) or a chunked stream ({!start_chunked} /
    {!write_chunk} / {!finish_chunked}).  Chunked transfer encoding is
    the wire mechanism behind the daemon's live progress stream: each
    progress report is one chunk, so any HTTP/1.1 client — [curl],
    [wjcli watch], a browser fetch — sees reports as they happen.

    Client side: {!fetch} issues one request and decodes the response,
    invoking [on_chunk] per chunk as a streamed response arrives.

    Connections are one-shot: the daemon answers with
    [Connection: close] and closing ends the exchange, which is what
    makes "client disconnected" detectable as a write error
    ([EPIPE]/[ECONNRESET] — both surface as [Unix.Unix_error]) at the
    next chunk.  Pipelining is deliberately not supported. *)

type request = {
  meth : string;  (** uppercase: ["GET"], ["POST"], ... *)
  path : string;  (** decoded path component, e.g. ["/query"] *)
  query : (string * string) list;
      (** decoded query-string pairs, in order of appearance *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;  (** [Content-Length] bytes (possibly empty) *)
}

exception Bad_request of string
(** Malformed request line, header, or body framing. *)

val read_request : Unix.file_descr -> request option
(** Parse one request off the socket.  [None] on a clean EOF before any
    bytes (client closed an idle connection).  Raises {!Bad_request} on
    malformed syntax, oversized headers (> 16 KiB) or an oversized body
    (> 8 MiB), and [Unix.Unix_error] on socket errors/timeouts. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val trace_header : string
(** ["x-wj-trace"] — the request-id header.  A client sets it to name
    its request; the daemon echoes it on every [/query] response and
    keys the retained trace ([GET /trace/<id>]) under it. *)

val request_trace_id : request -> string
(** The request's trace id: the {!trace_header} value when present and
    safe (1–128 chars drawn from [A-Za-z0-9._-]), otherwise a generated
    ["wj-<pid>-<n>"] id, unique within the process. *)

val status_reason : int -> string
(** ["OK"], ["Too Many Requests"], ... (["Unknown"] for unlisted codes). *)

val respond :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  string ->
  unit
(** Write a complete response with [Content-Length] framing and
    [Connection: close].  [content_type] defaults to
    ["application/json"]. *)

val start_chunked :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  unit ->
  unit
(** Write the status line and headers of a
    [Transfer-Encoding: chunked] response of [application/json] lines. *)

val write_chunk : Unix.file_descr -> string -> unit
(** One chunk (skipped entirely for [""], which would read as the
    terminator).  Raises [Unix.Unix_error (EPIPE, _, _)] when the client
    has disconnected — the daemon's cancellation trigger. *)

val finish_chunked : Unix.file_descr -> unit
(** The zero-length terminating chunk. *)

(** {2 Client} *)

type response = {
  status : int;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
      (** whole body; for a chunked response, the chunks concatenated *)
}

val fetch :
  ?meth:string ->
  ?req_headers:(string * string) list ->
  ?body:string ->
  ?on_chunk:(string -> unit) ->
  string ->
  response
(** [fetch url] issues one request to [http://host:port/path] and reads
    the full response.  [meth] defaults to ["GET"] (["POST"] when [body]
    is given).  [on_chunk] fires once per chunk of a chunked response,
    {e as it arrives} — the streaming consumer of the daemon's progress
    wire.  Raises [Invalid_argument] on a non-[http://] URL,
    {!Bad_request} on a malformed response, [Unix.Unix_error] on
    connection failures. *)
