type entry =
  | Counter of int
  | Gauge of float
  | Histogram of int array

type t = (string * entry) list

let of_metrics m =
  List.map
    (fun (name, fam) ->
      match fam with
      | Metrics.Counter c -> (name, Counter (Counter.value c))
      | Metrics.Histogram h -> (name, Histogram (Histogram.to_array h))
      | Metrics.Gauge g -> (name, Gauge (Gauge.value g)))
    (Metrics.families m)

let counter_value t name =
  match List.assoc_opt name t with Some (Counter n) -> n | _ -> 0

let gauge_value t name =
  match List.assoc_opt name t with Some (Gauge v) -> v | _ -> 0.0

let histogram_value t name =
  match List.assoc_opt name t with Some (Histogram a) -> a | _ -> [||]

(* Smallest bucket index whose cumulative count reaches the [q]-quantile
   of the recorded population; 0 on an empty histogram. *)
let quantile a q =
  let total = Array.fold_left ( + ) 0 a in
  if total = 0 then 0
  else begin
    let target = q *. float_of_int total in
    let cum = ref 0 and idx = ref (Array.length a - 1) and found = ref false in
    Array.iteri
      (fun i n ->
        if not !found then begin
          cum := !cum + n;
          if float_of_int !cum >= target then begin
            idx := i;
            found := true
          end
        end)
      a;
    !idx
  end

let entry_equal a b =
  match (a, b) with
  | Counter x, Counter y -> x = y
  | Histogram x, Histogram y -> x = y
  | Gauge x, Gauge y -> (Float.is_nan x && Float.is_nan y) || x = y
  | _ -> false

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, e1) (n2, e2) -> n1 = n2 && entry_equal e1 e2) a b

(* ---- text rendering --------------------------------------------------- *)

let render t =
  let buf = Buffer.create 512 in
  let section title pred show =
    let rows = List.filter (fun (_, e) -> pred e) t in
    if rows <> [] then begin
      Buffer.add_string buf (title ^ ":\n");
      List.iter
        (fun (name, e) -> Buffer.add_string buf (Printf.sprintf "  %-36s %s\n" name (show e)))
        rows
    end
  in
  section "counters"
    (function Counter _ -> true | _ -> false)
    (function Counter n -> string_of_int n | _ -> assert false);
  section "histograms"
    (function Histogram _ -> true | _ -> false)
    (function
      | Histogram a ->
        let total = Array.fold_left ( + ) 0 a in
        let cells =
          Array.to_list (Array.mapi (fun i n -> (i, n)) a)
          |> List.filter (fun (_, n) -> n <> 0)
          |> List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n)
        in
        if total = 0 then "- (total 0)"
        else
          Printf.sprintf "%s (total %d, p50=%d p95=%d p99=%d)"
            (if cells = [] then "-" else String.concat " " cells)
            total (quantile a 0.50) (quantile a 0.95) (quantile a 0.99)
      | _ -> assert false);
  section "gauges"
    (function Gauge _ -> true | _ -> false)
    (function Gauge v -> Printf.sprintf "%.6g" v | _ -> assert false);
  Buffer.contents buf

(* ---- JSON ------------------------------------------------------------- *)

module Json = Wj_util.Json

let to_json t =
  let section pick =
    Json.Obj (List.filter_map (fun (name, e) -> Option.map (fun v -> (name, v)) (pick e)) t)
  in
  let int n = Json.Int n in
  Json.Obj
    [
      ("counters", section (function Counter n -> Some (int n) | _ -> None));
      ("gauges", section (function Gauge v -> Some (Json.Float v) | _ -> None));
      ( "histograms",
        section (function
          | Histogram a ->
            Some
              (Json.Obj
                 [
                   ("buckets", Json.List (Array.to_list (Array.map int a)));
                   ("p50", int (quantile a 0.50));
                   ("p95", int (quantile a 0.95));
                   ("p99", int (quantile a 0.99));
                 ])
          | _ -> None) );
    ]

(* Read back what [to_json] emits: an object of three objects whose
   values are ints, numbers (or the non-finite strings), and histogram
   objects. *)
let of_json doc =
  let fail msg = raise (Json.Parse_error ("Snapshot.of_json: " ^ msg)) in
  let fields = function Json.Obj fs -> fs | _ -> fail "expected an object" in
  let int_of = function Json.Int n -> n | _ -> fail "expected an integer" in
  let gauge_of v =
    match Json.to_float v with Some f -> f | None -> fail "bad gauge value"
  in
  let buckets_of = function
    | Json.List xs -> Array.of_list (List.map int_of xs)
    | _ -> fail "expected a bucket array"
  in
  (* Histograms are written as {"buckets": [...], "p50": .., ...}; the
     quantiles are derived data, so only the buckets are read back.
     Pre-object dumps (a bare int array) still parse. *)
  let histogram_of = function
    | Json.List _ as a -> buckets_of a
    | Json.Obj fs -> (
      match List.assoc_opt "buckets" fs with Some b -> buckets_of b | None -> [||])
    | _ -> fail "expected a histogram"
  in
  let entries f v = List.map (fun (name, x) -> (name, f x)) (fields v) in
  List.concat_map
    (fun (section, v) ->
      match section with
      | "counters" -> entries (fun x -> Counter (int_of x)) v
      | "gauges" -> entries (fun x -> Gauge (gauge_of x)) v
      | "histograms" -> entries (fun x -> Histogram (histogram_of x)) v
      | s -> fail ("unknown section " ^ s))
    (fields doc)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
