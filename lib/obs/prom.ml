let content_type = "text/plain; version=0.0.4"

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize name = String.map (fun c -> if is_name_char c then c else '_') name

let is_digit c = c >= '0' && c <= '9'

(* Registry scope prefixes that become labels: "session<N>." and
   "tenant.<name>.".  Returns the remaining name and the label pairs. *)
let split_scope name =
  let n = String.length name in
  let starts p = n > String.length p && String.sub name 0 (String.length p) = p in
  if starts "session" then begin
    let i = ref 7 in
    while !i < n && is_digit name.[!i] do incr i done;
    if !i > 7 && !i < n - 1 && name.[!i] = '.' then
      ( String.sub name (!i + 1) (n - !i - 1),
        [ ("session", String.sub name 7 (!i - 7)) ] )
    else (name, [])
  end
  else if starts "tenant." then
    match String.index_from_opt name 7 '.' with
    | Some j when j > 7 && j < n - 1 ->
      (String.sub name (j + 1) (n - j - 1), [ ("tenant", String.sub name 7 (j - 7)) ])
    | _ -> (name, [])
  else (name, [])

let escape_label buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let add_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        escape_label buf v;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

(* Prometheus accepts any float syntax; %.17g round-trips doubles and
   prints integers without an exponent. *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let sample buf name ?(suffix = "") labels value =
  Buffer.add_string buf name;
  Buffer.add_string buf suffix;
  add_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let kind_name = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Histogram _ -> "histogram"
  | Metrics.Gauge _ -> "gauge"

let render m =
  (* Group series by exposed family name.  [Metrics.families] is sorted
     by registry name; scoped variants of one family ("session0.x",
     "session1.x", "x") collapse into one group, so collect first, then
     emit groups in exposed-name order. *)
  let groups : (string, ((string * string) list * Metrics.family) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (name, fam) ->
      let base, labels = split_scope name in
      let exposed = "wj_" ^ sanitize base in
      match Hashtbl.find_opt groups exposed with
      | Some cell -> cell := (labels, fam) :: !cell
      | None ->
        Hashtbl.add groups exposed (ref [ (labels, fam) ]);
        order := exposed :: !order)
    (Metrics.families m);
  let buf = Buffer.create 4096 in
  List.iter
    (fun exposed ->
      let series = List.rev !(Hashtbl.find groups exposed) in
      let kind = snd (List.hd series) in
      Buffer.add_string buf "# TYPE ";
      Buffer.add_string buf exposed;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (kind_name kind);
      Buffer.add_char buf '\n';
      List.iter
        (fun (labels, fam) ->
          match (kind, fam) with
          | Metrics.Counter _, Metrics.Counter c ->
            sample buf exposed labels (string_of_int (Counter.value c))
          | Metrics.Gauge _, Metrics.Gauge g ->
            sample buf exposed labels (fmt_float (Gauge.value g))
          | Metrics.Histogram _, Metrics.Histogram h ->
            let counts = Histogram.to_array h in
            let last = ref (-1) in
            Array.iteri (fun i n -> if n > 0 then last := i) counts;
            let cum = ref 0 and sum = ref 0.0 in
            for i = 0 to !last do
              cum := !cum + counts.(i);
              sum := !sum +. (float_of_int i *. float_of_int counts.(i));
              sample buf exposed ~suffix:"_bucket"
                (labels @ [ ("le", string_of_int i) ])
                (string_of_int !cum)
            done;
            let total = Histogram.total h in
            sample buf exposed ~suffix:"_bucket"
              (labels @ [ ("le", "+Inf") ])
              (string_of_int total);
            sample buf exposed ~suffix:"_sum" labels (fmt_float !sum);
            sample buf exposed ~suffix:"_count" labels (string_of_int total)
          | _ ->
            (* Exposed-name collision across kinds: drop the latecomer
               rather than emit a malformed family. *)
            ())
        series)
    (List.sort compare !order);
  Buffer.contents buf
