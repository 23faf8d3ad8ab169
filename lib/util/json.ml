type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing --------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else
    (* The shortest of 15, 16 and 17 significant digits that parses back
       to [f]; 17 always does. *)
    let s =
      let p15 = Printf.sprintf "%.15g" f in
      if float_of_string p15 = f then p15
      else
        let p16 = Printf.sprintf "%.16g" f in
        if float_of_string p16 = f then p16 else Printf.sprintf "%.17g" f
    in
    (* Keep a float-typed token: %g prints 1.0 as "1". *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ---------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    &&
    match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word v =
  if
    cur.pos + String.length word <= String.length cur.s
    && String.sub cur.s cur.pos (String.length word) = word
  then (
    cur.pos <- cur.pos + String.length word;
    v)
  else fail cur ("expected " ^ word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
      cur.pos <- cur.pos + 1;
      match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        cur.pos <- cur.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if cur.pos + 4 > String.length cur.s then fail cur "short \\u escape";
          let hex = String.sub cur.s cur.pos 4 in
          cur.pos <- cur.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
          in
          (* Raw byte for the Latin-1 range; UTF-8 for the rest of the
             BMP (no surrogate-pair handling — enough for a wire format
             whose strings are SQL text and identifiers). *)
          if code < 0x100 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail cur "bad escape");
        go ())
    | Some c ->
      cur.pos <- cur.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos]
  do
    cur.pos <- cur.pos + 1
  done;
  let tok = String.sub cur.s start (cur.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> (
      (* Integer overflow: fall back to float. *)
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some '}' then (
      cur.pos <- cur.pos + 1;
      Obj [])
    else
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          cur.pos <- cur.pos + 1;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail cur "expected ',' or '}'"
      in
      fields []
  | Some '[' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some ']' then (
      cur.pos <- cur.pos + 1;
      List [])
    else
      let rec elements acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          cur.pos <- cur.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail cur "expected ',' or ']'"
      in
      elements []
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected '%c'" c)

let parse s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ---- accessors -------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None
