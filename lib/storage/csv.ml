exception Csv_error of string * int

let fail line fmt = Printf.ksprintf (fun s -> raise (Csv_error (s, line))) fmt

let split_line ?(separator = ',') line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = line.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          incr i
        end
        else in_quotes := false
      else Buffer.add_char buf c
    end
    else if c = '"' then in_quotes := true
    else if c = separator then flush_field ()
    else Buffer.add_char buf c;
    incr i
  done;
  if !in_quotes then fail 0 "unterminated quoted field";
  flush_field ();
  List.rev !fields
