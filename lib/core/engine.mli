(** The estimator sink and the shared execution driver.

    A walk is {!Walker.walk}: one loop, one step path.  {!feed} turns its
    outcome into an estimator observation, and {!Driver} is the single
    execution loop shared by the Online drivers (scalar and GROUP BY)
    and by the ripple-join baselines: stop conditions (confidence target, deadline,
    walk budget, cancellation) plus periodic reporting, with the polling
    cadence of each check configurable. *)

type t
(** A prepared walker behind the benchmark ledger's walk handle. *)

val create : ?batch:int -> ?prefetch:bool -> Walker.prepared -> t
(** [batch] and [prefetch] are accepted and ignored: every walk is one
    {!Walker.walk}.  They survive only because the benchmark ledger
    ([bench/ledger/ledger.ml]) still passes them; ROADMAP item 13 deletes
    [create] and [next] together with the ledger's batch-64 rows. *)

val next : t -> Wj_util.Prng.t -> Walker.outcome
(** {!Walker.walk} on the prepared walker. *)

val walk_value : Query.t -> Walker.prepared -> int array -> float
(** The estimator observation value of a successful path: the aggregate
    expression for SUM/AVG/VARIANCE/STDEV, 1.0 for COUNT. *)

val feed : Query.t -> Walker.prepared -> Wj_stats.Estimator.t -> Walker.outcome -> unit
(** The standard estimator sink: a success contributes [(inv_p, value)],
    a failure contributes a zero observation (§3.1 — failed walks are part
    of the probability space). *)

module Driver : sig
  type stop_reason = Wj_obs.Event.stop_reason =
    | Target_reached
    | Time_up
    | Walk_budget_exhausted
    | Cancelled
        (** The canonical constructors live in {!Wj_obs.Event.stop_reason};
            this re-export keeps existing pattern matches compiling. *)

  type polls = {
    target_mask : int;
        (** poll the target when [walks > mask && walks land mask = 0] *)
    report_mask : int;  (** gate report-timing checks on [walks land mask = 0] *)
    cancel_mask : int;  (** poll cancellation when [walks land mask = 0] *)
  }
  (** Invariant: every mask must be of the form [2^k - 1] (0, 1, 3, 7, 15,
      ...) — the [walks land mask = 0] gating means "every 2^k walks" only
      for all-low-bits masks; anything else would silently skew the polling
      cadence.  {!run} validates this and raises [Invalid_argument]. *)

  val default_polls : polls
  (** [{ target_mask = 15; report_mask = 0; cancel_mask = 63 }] — the
      cadence of the original sequential driver. *)

  val is_mask : int -> bool
  (** Whether the int is a valid poll mask ([2^k - 1] for some [k >= 0]). *)

  type t
  (** A resumable driver loop: the stop-condition/report state of {!run},
      reified so a scheduler can grant it bounded quanta of steps
      ({!advance}) instead of blocking until a stop condition fires.
      {!run} itself is [make] followed by draining — one code path, so a
      loop driven in quanta reproduces the blocking loop bit for bit. *)

  val make :
    ?polls:polls ->
    ?sink:Wj_obs.Sink.t ->
    ?progress:(unit -> Wj_obs.Progress.t) ->
    ?target_reached:(unit -> bool) ->
    ?should_stop:(unit -> bool) ->
    ?max_walks:int ->
    ?report_every:float ->
    ?on_report:(unit -> unit) ->
    max_time:float ->
    clock:Wj_util.Timer.t ->
    walks:(unit -> int) ->
    step:(unit -> unit) ->
    unit ->
    t
  (** Build a loop without running it.  Parameters are those of {!run};
      raises [Invalid_argument] when a poll mask is not of the form
      [2^k - 1]. *)

  val advance : t -> max_steps:int -> stop_reason option
  (** Run at most [max_steps] calls of [step], stopping early when a stop
      condition resolves.  Returns [None] when the quantum was exhausted
      with the loop still live, [Some reason] once the loop has stopped
      (then and on every later call).  Stop conditions are checked before
      each step in the same order and on the same polling cadence as
      {!run}, so the sequence of steps, reports and the final reason are
      identical to a blocking run.  When the sink carries a trace, each
      [advance] call is bracketed by one ["driver.advance"] span —
      begin/end nesting balances on every exit path.  Raises
      [Invalid_argument] when [max_steps < 1]. *)

  val interrupt : t -> stop_reason -> unit
  (** Force the loop to stop with [reason] without performing further
      steps: the stop counter bump and [Stopped] event fire here, exactly
      as if the loop had resolved [reason] itself.  No-op when the loop has
      already stopped.  A scheduler uses this for session-level
      cancellation and deadlines, which must take effect between quanta
      regardless of the loop's own [cancel_mask] cadence. *)

  val stopped : t -> stop_reason option
  (** The resolved stop reason, if the loop has stopped. *)

  val drain : t -> stop_reason
  (** Advance until a stop condition resolves and return it; {!run} is
      [make] followed by [drain]. *)

  val run :
    ?polls:polls ->
    ?sink:Wj_obs.Sink.t ->
    ?progress:(unit -> Wj_obs.Progress.t) ->
    ?target_reached:(unit -> bool) ->
    ?should_stop:(unit -> bool) ->
    ?max_walks:int ->
    ?report_every:float ->
    ?on_report:(unit -> unit) ->
    max_time:float ->
    clock:Wj_util.Timer.t ->
    walks:(unit -> int) ->
    step:(unit -> unit) ->
    unit ->
    stop_reason
  (** Run [step] (one walk, round, or sample — caller-defined) until a stop
      condition fires, checking in order: target, cancellation, deadline,
      budget.  [walks] reports the count of completed steps; [on_report]
      fires whenever the clock passes a multiple of [report_every] (subject
      to [report_mask]).  Reading time through a {!Wj_util.Timer.t} keeps
      the loop usable under the I/O simulator's virtual clocks.

      [sink] observes the loop: each report tick bumps the
      ["driver.report_ticks"] counter and, when [progress] is given and the
      sink has an event callback (reports-only granularity suffices —
      {!Wj_obs.Sink.wants_reports}), emits [Report (progress ())]; the
      final stop bumps ["driver.stop.<reason>"] and emits [Stopped].
      Raises [Invalid_argument] when a poll mask is not of the form
      [2^k - 1]. *)
end
