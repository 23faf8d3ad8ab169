module Estimator = Wj_stats.Estimator
module Timer = Wj_util.Timer

(* ---- The ledger's walk handle ------------------------------------------ *)

type t = Walker.prepared

let create ?batch:_ ?prefetch:_ prepared = prepared
let next = Walker.walk

(* ---- Estimator sink --------------------------------------------------- *)

let walk_value q prepared path =
  match q.Query.agg with
  | Estimator.Count -> 1.0
  | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
    Walker.value_of prepared path

let feed q prepared est outcome =
  match outcome with
  | Walker.Success { path; inv_p } ->
    Estimator.add est ~u:inv_p ~v:(walk_value q prepared path)
  | Walker.Failure _ -> Estimator.add_failure est

(* ---- Driver ----------------------------------------------------------- *)

module Driver = struct
  type stop_reason = Wj_obs.Event.stop_reason =
    | Target_reached
    | Time_up
    | Walk_budget_exhausted
    | Cancelled

  type polls = { target_mask : int; report_mask : int; cancel_mask : int }

  let default_polls = { target_mask = 15; report_mask = 0; cancel_mask = 63 }

  (* The [walks land mask = 0] gating only implements "every 2^k walks"
     when the mask has all low bits set. *)
  let is_mask m = m >= 0 && m land (m + 1) = 0

  let validate_polls p =
    let check name m =
      if not (is_mask m) then
        invalid_arg
          (Printf.sprintf "Engine.Driver.run: polls.%s = %d is not 2^k - 1" name m)
    in
    check "target_mask" p.target_mask;
    check "report_mask" p.report_mask;
    check "cancel_mask" p.cancel_mask

  type t = {
    polls : polls;
    sink : Wj_obs.Sink.t;
    trace : Wj_obs.Trace.t option;
    report_ticks : Wj_obs.Counter.t option;
    progress : (unit -> Wj_obs.Progress.t) option;
    target_reached : (unit -> bool) option;
    should_stop : (unit -> bool) option;
    max_walks : int option;
    interval : float;
    mutable next_report : float;
    max_time : float;
    clock : Timer.t;
    walks : unit -> int;
    step : unit -> unit;
    on_report : (unit -> unit) option;
    mutable stop : stop_reason option;
  }

  let make ?(polls = default_polls) ?(sink = Wj_obs.Sink.noop) ?progress
      ?target_reached ?should_stop ?max_walks ?report_every ?on_report ~max_time
      ~clock ~walks ~step () =
    validate_polls polls;
    let report_ticks =
      match Wj_obs.Sink.metrics sink with
      | None -> None
      | Some m -> Some (Wj_obs.Metrics.counter m "driver.report_ticks")
    in
    let interval = match report_every with Some r -> r | None -> infinity in
    {
      polls;
      sink;
      trace = Wj_obs.Sink.trace sink;
      report_ticks;
      progress;
      target_reached;
      should_stop;
      max_walks;
      interval;
      next_report = interval;
      max_time;
      clock;
      walks;
      step;
      on_report;
      stop = None;
    }

  let stopped t = t.stop

  (* Resolving the stop reason and the side effects that must accompany it
     (one driver.stop.<reason> bump, one Stopped event) happen together,
     exactly once, whether the loop stops itself or is interrupted. *)
  let finalize t reason =
    t.stop <- Some reason;
    (match Wj_obs.Sink.metrics t.sink with
    | None -> ()
    | Some m ->
      Wj_obs.Counter.incr
        (Wj_obs.Metrics.counter m
           ("driver.stop." ^ Wj_obs.Event.stop_reason_name reason)));
    if Wj_obs.Sink.wants_reports t.sink then
      Wj_obs.Sink.emit t.sink (Wj_obs.Event.Stopped reason)

  let interrupt t reason = if t.stop = None then finalize t reason

  let target_hit t =
    match t.target_reached with
    | None -> false
    | Some f ->
      (* Checking a CI after every single walk is wasteful; poll. *)
      let n = t.walks () in
      n > t.polls.target_mask && n land t.polls.target_mask = 0 && f ()

  let cancelled t =
    match t.should_stop with
    | None -> false
    | Some f -> t.walks () land t.polls.cancel_mask = 0 && f ()

  let budget_exhausted t =
    match t.max_walks with None -> false | Some m -> t.walks () >= m

  (* One loop iteration: either resolve the stop condition (returning false)
     or perform one step plus its report check (returning true).  The check
     order — target, cancellation, deadline, budget — is the contract. *)
  let tick t =
    if target_hit t then begin
      finalize t Target_reached;
      false
    end
    else if cancelled t then begin
      finalize t Cancelled;
      false
    end
    else if Timer.elapsed t.clock >= t.max_time then begin
      finalize t Time_up;
      false
    end
    else if budget_exhausted t then begin
      finalize t Walk_budget_exhausted;
      false
    end
    else begin
      t.step ();
      if
        t.walks () land t.polls.report_mask = 0
        && Timer.elapsed t.clock >= t.next_report
      then begin
        (match t.on_report with None -> () | Some f -> f ());
        (match t.report_ticks with None -> () | Some c -> Wj_obs.Counter.incr c);
        (match t.progress with
        | Some p when Wj_obs.Sink.wants_reports t.sink ->
          Wj_obs.Sink.emit t.sink (Wj_obs.Event.Report (p ()))
        | Some _ | None -> ());
        t.next_report <- t.next_report +. t.interval
      end;
      true
    end

  (* The whole quantum is one span, not one per walk: span cost stays off
     the per-step path, and a Chrome timeline of a scheduled run shows
     each driver's granted slices.  The begin/end pair brackets the loop
     unconditionally, so nesting balances on every exit — quantum
     exhausted, stop condition resolved, interrupted between calls, or a
     step or sink that raises. *)
  let advance t ~max_steps =
    if max_steps < 1 then invalid_arg "Engine.Driver.advance: max_steps must be >= 1";
    (match t.trace with
    | Some tr -> Wj_obs.Trace.span_begin tr ~cat:"engine" "driver.advance"
    | None -> ());
    let close () =
      match t.trace with
      | Some tr -> Wj_obs.Trace.span_end tr ~cat:"engine" ()
      | None -> ()
    in
    let steps = ref 0 in
    (try
       while t.stop = None && !steps < max_steps do
         if tick t then incr steps
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       close ();
       Printexc.raise_with_backtrace e bt);
    close ();
    t.stop

  let drain t =
    let rec go () =
      match advance t ~max_steps:max_int with Some r -> r | None -> go ()
    in
    go ()

  let run ?polls ?sink ?progress ?target_reached ?should_stop ?max_walks
      ?report_every ?on_report ~max_time ~clock ~walks ~step () =
    drain
      (make ?polls ?sink ?progress ?target_reached ?should_stop ?max_walks
         ?report_every ?on_report ~max_time ~clock ~walks ~step ())
end
