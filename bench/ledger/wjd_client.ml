(* The benchmark's side of the wjd wire: a timing HTTP/1.1 client, the
   daemon process (or an in-process daemon's port), and a closed-loop
   load generator.  Everything is measured from the client: connect,
   first response byte, first progress line and final line. *)

module Json = Wj_daemon.Json

let now = Measure.now

type reply = {
  status : int;  (** 0 when the exchange failed at the socket level *)
  connect_s : float;
  first_byte_s : float;
  first_progress_s : float;  (** nan when no progress line arrived *)
  final_s : float;  (** final line, or end of body when there is none *)
  lines : int;
  bytes : int;
  final : Json.t option;  (** the [{"type":"final",...}] object *)
  body : string;
}

let failed_reply = {
  status = 0;
  connect_s = Float.nan;
  first_byte_s = Float.nan;
  first_progress_s = Float.nan;
  final_s = Float.nan;
  lines = 0;
  bytes = 0;
  final = None;
  body = "";
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* One request on a fresh connection.  The body is decoded (chunked or
   Content-Length framing) as it arrives, and every complete line is
   timestamped when the read that completed it returned. *)
let request ~port ?(headers = []) ~meth ~path ?(body = "") () =
  let t0 = now () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let connect_s = now () -. t0 in
      write_all fd
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\
            Content-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
           meth path (String.length body)
           (String.concat "" (List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") headers))
           body)
        0;
      let raw = Buffer.create 4096 and data = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let status = ref 0 and header_end = ref (-1) and chunked = ref false in
      let length = ref (-1) and pos = ref 0 and line_start = ref 0 in
      let finished = ref false in
      let first_byte = ref Float.nan and first_progress = ref Float.nan in
      let final_at = ref Float.nan and final = ref None and lines = ref 0 in
      let on_line t line =
        incr lines;
        match Json.parse line with
        | j -> (
          match Option.bind (Json.member "type" j) Json.to_str with
          | Some "progress" -> if Float.is_nan !first_progress then first_progress := t
          | Some "final" ->
            final := Some j;
            final_at := t
          | _ -> ())
        | exception Json.Parse_error _ -> ()
      in
      let split_lines t =
        let s = Buffer.contents data in
        let rec go () =
          match String.index_from_opt s !line_start '\n' with
          | None -> ()
          | Some i ->
            on_line t (String.sub s !line_start (i - !line_start));
            line_start := i + 1;
            go ()
        in
        go ()
      in
      let parse_header s =
        let head = String.sub s 0 !header_end in
        match String.split_on_char '\n' head with
        | [] -> ()
        | status_line :: rest ->
          (match String.split_on_char ' ' status_line with
          | _ :: code :: _ -> status := Option.value (int_of_string_opt code) ~default:0
          | _ -> ());
          List.iter
            (fun l ->
              match String.index_opt l ':' with
              | None -> ()
              | Some i -> (
                let k = String.lowercase_ascii (String.trim (String.sub l 0 i)) in
                let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
                match k with
                | "transfer-encoding" -> chunked := String.lowercase_ascii v = "chunked"
                | "content-length" -> length := Option.value (int_of_string_opt v) ~default:(-1)
                | _ -> ()))
            rest
      in
      let rec decode s =
        if !chunked then
          match find s "\r\n" !pos with
          | None -> ()
          | Some eol -> (
            let size_field = String.sub s !pos (eol - !pos) in
            let size_field =
              match String.index_opt size_field ';' with
              | Some i -> String.sub size_field 0 i
              | None -> size_field
            in
            match int_of_string_opt ("0x" ^ String.trim size_field) with
            | None -> finished := true
            | Some 0 -> finished := true
            | Some size ->
              if String.length s >= eol + 2 + size + 2 then begin
                Buffer.add_string data (String.sub s (eol + 2) size);
                pos := eol + 2 + size + 2;
                decode s
              end)
        else begin
          Buffer.add_string data (String.sub s !pos (String.length s - !pos));
          pos := String.length s;
          if !length >= 0 && Buffer.length data >= !length then finished := true
        end
      in
      while not !finished do
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        let t = now () -. t0 in
        if n = 0 then finished := true
        else begin
          if Float.is_nan !first_byte then first_byte := t;
          Buffer.add_subbytes raw chunk 0 n;
          let s = Buffer.contents raw in
          if !header_end < 0 then (
            match find s "\r\n\r\n" 0 with
            | Some i ->
              header_end := i;
              pos := i + 4;
              parse_header s
            | None -> ());
          if !header_end >= 0 then begin
            decode s;
            split_lines t
          end
        end
      done;
      let t_end = now () -. t0 in
      (* A body without a trailing newline still ends in one last line. *)
      if !line_start < Buffer.length data then begin
        Buffer.add_char data '\n';
        split_lines t_end
      end;
      {
        status = !status;
        connect_s;
        first_byte_s = !first_byte;
        first_progress_s = !first_progress;
        final_s = (if Float.is_nan !final_at then t_end else !final_at);
        lines = !lines;
        bytes = Buffer.length data;
        final = !final;
        body = Buffer.contents data;
      })

let get ~port path = request ~port ~meth:"GET" ~path ()

(* ---- the final object ----------------------------------------------------- *)

let first_item r =
  match Option.bind r.final (Json.member "items") with
  | Some (Json.List (item :: _)) -> Some item
  | _ -> None

let item_float r name =
  Option.value (Option.bind (first_item r) (fun i -> Option.bind (Json.member name i) Json.to_float))
    ~default:Float.nan

let item_str r name = Option.bind (first_item r) (fun i -> Option.bind (Json.member name i) Json.to_str)
let final_str r name = Option.bind r.final (fun f -> Option.bind (Json.member name f) Json.to_str)

(* ---- the daemon process ---------------------------------------------------- *)

type proc = { pid : int; port : int; out : in_channel }

let spawn ~wjcli args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close devnull)
      (fun () -> Unix.create_process wjcli (Array.of_list (wjcli :: args)) devnull w Unix.stderr)
  in
  let out = Unix.in_channel_of_descr r in
  let rec listening () =
    match In_channel.input_line out with
    | None -> None
    | Some line -> (
      match Scanf.sscanf_opt line "wjd listening on http://127.0.0.1:%d" Fun.id with
      | Some port -> Some port
      | None -> listening ())
  in
  match listening () with
  | Some port -> { pid; port; out }
  | None ->
    ignore (Unix.waitpid [] pid);
    close_in_noerr out;
    failwith (wjcli ^ " wjd exited before listening")

(* Ask the daemon to stop, drain its stdout and reap it; a daemon that
   does not answer is killed.  Either way the process has ended on
   return. *)
let stop p =
  (match request ~port:p.port ~meth:"POST" ~path:"/shutdown" () with
  | { status = 200; _ } -> ()
  | _ | (exception Unix.Unix_error _) -> ( try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  (try ignore (In_channel.input_all p.out) with Sys_error _ -> ());
  ignore (Unix.waitpid [] p.pid);
  close_in_noerr p.out

let kill p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] p.pid);
  close_in_noerr p.out

(* ---- closed-loop load -------------------------------------------------------- *)

type req = {
  idx : int;
  template : int;
  body : string;
  repeat_of : int option;  (** a repeat resends the body of this request *)
  trace_id : string option;  (** sent as X-WJ-Trace; its trace is fetched *)
}

type result = { req : req; reply : reply; trace : Json.t option }

(* Request [i] of a load.  Every 5th resends the body sent 4 requests
   earlier, which the estimate cache answers once that one has finished;
   with [traced], every other fresh request asks for its trace.  [body j]
   is the template and body of fresh request [j]. *)
let nth_request ~traced ~body i =
  let original = if i mod 5 = 4 then i - 4 else i in
  let template, body = body original in
  {
    idx = i;
    template;
    body;
    repeat_of = (if original = i then None else Some original);
    trace_id =
      (if traced && original = i && i mod 2 = 1 then
         Some (Printf.sprintf "wjbench-%d-%d" (Unix.getpid ()) i)
       else None);
  }

(* [clients] threads each send their next request only once the previous
   reply has ended.  Requests are numbered in issue order; [continue i]
   decides whether request [i] is sent at all. *)
let run_load ~port ~clients ~continue ~(make : int -> req) =
  let next = Atomic.make 0 in
  let mu = Mutex.create () in
  let results = ref [] in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if continue i then begin
        let req = make i in
        let headers =
          match req.trace_id with Some id -> [ ("X-WJ-Trace", id) ] | None -> []
        in
        let reply =
          try request ~port ~headers ~meth:"POST" ~path:"/query" ~body:req.body ()
          with Unix.Unix_error _ -> failed_reply
        in
        let trace =
          match req.trace_id with
          | Some id when reply.status = 200 -> (
            try Some (Json.parse (get ~port ("/trace/" ^ id)).body)
            with Json.Parse_error _ | Unix.Unix_error _ -> None)
          | _ -> None
        in
        Mutex.protect mu (fun () -> results := { req; reply; trace } :: !results);
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  List.sort (fun a b -> compare a.req.idx b.req.idx) !results
