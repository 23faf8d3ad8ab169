type t = {
  on_event : (Event.t -> unit) option;
  metrics : Metrics.t option;
  trace : Trace.t option;
  full_events : bool;
      (* when false the callback only wants milestone events (reports,
         stops, session lifecycle, plan/policy picks) — hot-path
         producers skip it entirely *)
}

let noop = { on_event = None; metrics = None; trace = None; full_events = true }

let make ?on_event ?metrics ?trace ?(events = `All) () =
  { on_event; metrics; trace; full_events = events = `All }

let of_fn f = { noop with on_event = Some f }
let of_metrics m = { noop with metrics = Some m }
let metrics t = t.metrics
let trace t = t.trace
let wants_events t = t.on_event <> None && t.full_events
let wants_reports t = t.on_event <> None

let[@inline] emit t ev = match t.on_event with None -> () | Some f -> f ev

let tee a b =
  let on_event =
    match (a.on_event, b.on_event) with
    | None, f | f, None -> f
    | Some f, Some g ->
      Some
        (fun ev ->
          f ev;
          g ev)
  in
  let metrics = match a.metrics with Some _ as m -> m | None -> b.metrics in
  let trace = match a.trace with Some _ as tr -> tr | None -> b.trace in
  (* The composed callback runs at the widest granularity either side
     asked for: a reports-only side then sees full events too, which is
     harmless (its handler ignores what it does not match) and keeps the
     tee a single callback. *)
  let full_events =
    match (a.on_event, b.on_event) with
    | None, None -> true
    | Some _, None -> a.full_events
    | None, Some _ -> b.full_events
    | Some _, Some _ -> a.full_events || b.full_events
  in
  { on_event; metrics; trace; full_events }
