type t = {
  metrics : Metrics.t;
  trace : Trace.t option;
  series_capacity : int;
  series : (string, Timeseries.t) Hashtbl.t;
  mutable series_order : string list;  (* reversed registration order *)
  last_counter : (string, int) Hashtbl.t;
  mutable last_sample : float;
  convergence : (string, Convergence.t) Hashtbl.t;
  mutable convergence_order : string list;  (* reversed *)
  clock : Wj_util.Timer.t;
}

let create ?(series_capacity = 512) ?(tracing = false) ?(trace_capacity = 8192) ?clock
    ?metrics () =
  let clock = match clock with Some c -> c | None -> Wj_util.Timer.wall () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    metrics;
    trace = (if tracing then Some (Trace.create ~capacity:trace_capacity ~clock ()) else None);
    series_capacity;
    series = Hashtbl.create 32;
    series_order = [];
    last_counter = Hashtbl.create 32;
    (* Rate baseline: the recorder's creation instant, so the first
       sample's window is "since the run began", not undefined. *)
    last_sample = Wj_util.Timer.elapsed clock;
    convergence = Hashtbl.create 4;
    convergence_order = [];
    clock;
  }

let metrics t = t.metrics
let trace t = t.trace

let find_series t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = Timeseries.create ~capacity:t.series_capacity () in
    Hashtbl.add t.series name s;
    t.series_order <- name :: t.series_order;
    s

let series t name = Option.map Timeseries.to_array (Hashtbl.find_opt t.series name)
let series_names t = List.rev t.series_order

let convergence t ~scope =
  match Hashtbl.find_opt t.convergence scope with
  | Some c -> c
  | None ->
    let c = Convergence.create ~capacity:t.series_capacity () in
    Hashtbl.add t.convergence scope c;
    t.convergence_order <- scope :: t.convergence_order;
    c

let convergence_scopes t = List.rev t.convergence_order

(* Walk every registered family and append one point per value series.
   Counters additionally feed a derived ["<name>.rate"] series (events
   per second since the previous sample).  Histograms are skipped — their
   full bucket arrays belong to {!Snapshot}, not a scalar trajectory. *)
let sample t =
  let now = Wj_util.Timer.elapsed t.clock in
  let dt = now -. t.last_sample in
  List.iter
    (fun (name, fam) ->
      match fam with
      | Metrics.Counter c ->
        let v = Counter.value c in
        Timeseries.push (find_series t name) ~x:now ~y:(float_of_int v);
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.last_counter name) in
        Hashtbl.replace t.last_counter name v;
        if dt > 0.0 && Float.is_finite dt then
          Timeseries.push
            (find_series t (name ^ ".rate"))
            ~x:now
            ~y:(float_of_int (v - prev) /. dt)
      | Metrics.Gauge g -> Timeseries.push (find_series t name) ~x:now ~y:(Gauge.value g)
      | Metrics.Histogram _ -> ())
    (Metrics.families t.metrics);
  t.last_sample <- now

let scope_of_session session = Printf.sprintf "session%d." session

let note_progress t ~scope (p : Progress.t) =
  let c = convergence t ~scope in
  Convergence.note_ci c ~walks:p.Progress.walks ~half_width:p.Progress.half_width

let on_event t (ev : Event.t) =
  match ev with
  | Event.Report p ->
    note_progress t ~scope:"" p;
    sample t
  | Event.Session_report { session; progress; _ } ->
    note_progress t ~scope:(scope_of_session session) progress;
    sample t
  | Event.Stopped _ | Event.Session_finished _ -> sample t
  | _ -> ()

(* The recorder's sink subscribes at reports-only granularity: milestone
   events drive sampling and CI tracking, while the walk hot path keeps
   feeding plain counters — which is what holds timeseries-only overhead
   inside the bench budget. *)
let sink t =
  Sink.make ~on_event:(on_event t) ~metrics:t.metrics ?trace:t.trace ~events:`Reports ()

(* A session scheduled by the service emits plain driver-level [Report]
   events through its (already metrics-scoped) sink; routing them through
   [sink] would pool every session's CI trajectory under scope "".  A
   scoped sink pins those reports to the caller's scope instead. *)
let scoped_on_event t ~scope (ev : Event.t) =
  match ev with
  | Event.Report p ->
    note_progress t ~scope p;
    sample t
  | Event.Stopped _ -> sample t
  | ev -> on_event t ev

let scoped_sink t ~scope =
  Sink.make ~on_event:(scoped_on_event t ~scope) ~metrics:t.metrics ?trace:t.trace
    ~events:`Reports ()

(* ---- JSON export ------------------------------------------------------ *)

let fnum v =
  if Float.is_nan v then "\"nan\""
  else if v = infinity then "\"inf\""
  else if v = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" v

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let write_points buf pts =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i (x, y) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%s,%s]" (fnum x) (fnum y)))
    pts;
  Buffer.add_char buf ']'

let write_timeseries t buf =
  Buffer.add_char buf '{';
  List.iteri
    (fun i name ->
      let s = Hashtbl.find t.series name in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    \"";
      escape buf name;
      Buffer.add_string buf
        (Printf.sprintf "\": {\"pushes\":%d,\"stride\":%d,\"points\":" (Timeseries.pushes s)
           (Timeseries.stride s));
      write_points buf (Timeseries.to_array s);
      Buffer.add_char buf '}')
    (series_names t);
  Buffer.add_string buf (if t.series_order = [] then "}" else "\n  }")

let write_convergence t buf =
  Buffer.add_char buf '{';
  List.iteri
    (fun i scope ->
      let c = Hashtbl.find t.convergence scope in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    \"";
      escape buf scope;
      Buffer.add_string buf "\": {\"fit\":";
      (match Convergence.fit c with
      | None -> Buffer.add_string buf "null"
      | Some f ->
        Buffer.add_string buf
          (Printf.sprintf "{\"c\":%s,\"exponent\":%s,\"points\":%d}" (fnum f.Convergence.c)
             (fnum f.Convergence.exponent) f.Convergence.points));
      Buffer.add_string buf
        (Printf.sprintf ",\"total_attempts\":%d,\"plans\":[" (Convergence.total_attempts c));
      List.iteri
        (fun j (a : Convergence.attribution) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "{\"plan\":\"";
          escape buf a.Convergence.plan;
          Buffer.add_string buf
            (Printf.sprintf "\",\"attempts\":%d,\"successes\":%d,\"variance\":%s,\"share\":%s}"
               a.Convergence.attempts a.Convergence.successes (fnum a.Convergence.variance)
               (fnum a.Convergence.share)))
        (Convergence.attribution c);
      Buffer.add_string buf "],\"ci\":";
      write_points buf (Convergence.ci_series c);
      Buffer.add_char buf '}')
    (convergence_scopes t);
  Buffer.add_string buf (if t.convergence_order = [] then "}" else "\n  }")

let write_spans t buf =
  match t.trace with
  | None -> Buffer.add_string buf "{}"
  | Some tr ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, (seconds, count)) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n    \"";
        escape buf name;
        Buffer.add_string buf
          (Printf.sprintf "\": {\"seconds\":%s,\"count\":%d}" (fnum seconds) count))
      (Trace.totals tr);
    Buffer.add_string buf (if Trace.totals tr = [] then "}" else "\n  }")

(* One object, Chrome-trace loadable: chrome://tracing and Perfetto read
   the "traceEvents" key and ignore the recorder's extra sections. *)
let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"traceEvents\": ";
  (match t.trace with
  | None -> Buffer.add_string buf "[]"
  | Some tr -> Trace.write_events tr buf);
  Buffer.add_string buf ",\n  \"timeseries\": ";
  write_timeseries t buf;
  Buffer.add_string buf ",\n  \"convergence\": ";
  write_convergence t buf;
  Buffer.add_string buf ",\n  \"spans\": ";
  write_spans t buf;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
