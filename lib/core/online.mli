(** The online-aggregation driver: wander join end to end.

    Plan selection (optionally via the optimizer), then a walk loop that
    updates the estimator after every walk, emits periodic reports, and
    stops on whichever comes first of: confidence target reached, time
    budget exhausted, walk budget exhausted.

    The loop reads time through a {!Wj_util.Timer.t}; handing it a virtual
    clock advanced by an I/O simulator reproduces the paper's
    limited-memory experiments with unmodified driver code.

    {!run_session} is the canonical entry point: one {!Run_config.t}
    carries every shared knob (seed, budgets, reporting, clock,
    cancellation, plan choice, observability sink). *)

type report = Wj_obs.Progress.t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;  (** base-table tuples retrieved; 0 where not tracked *)
  estimate : float;
  half_width : float;
}
(** The unified progress record ({!Wj_obs.Progress.t} re-exported): the
    same type flows through [history], [on_report] and the event sink's
    [Report] events, for every driver. *)

type stop_reason = Engine.Driver.stop_reason =
  | Target_reached
  | Time_up
  | Walk_budget_exhausted
  | Cancelled

type outcome = {
  final : report;
  estimator : Wj_stats.Estimator.t;
  plan : Walk_plan.t;
  plan_description : string;
  optimizer_time : float;  (** seconds spent on trial walks (0 with a fixed plan) *)
  optimizer_walks : int;
      (** trial walks; they pick the plan and are not in [final.walks],
          [estimator] or the [max_walks] budget *)
  stopped_because : stop_reason;
  history : report list;  (** periodic reports, oldest first *)
}

type plan_choice = Run_config.plan_choice =
  | Optimize of Optimizer.config
  | Fixed of Walk_plan.t
  | First_enumerated
      (** the plan in the order the query was written — the "PG plan"
          baseline of Table 2 *)

(** {2 Resumable sessions}

    A session is a run reified as a value: plan selection and engine setup
    happen at {!start_session}, then the walk loop is advanced in bounded
    quanta by whoever holds the handle.  Draining a session in one go is
    exactly {!run_session} — quantum-driven and blocking execution share
    one code path ({!Engine.Driver}), which is what lets a scheduler
    ({!Wj_service}) interleave many sessions while preserving each one's
    fixed-seed trajectory bit for bit. *)

module Session : sig
  type t

  val advance : t -> max_steps:int -> stop_reason option
  (** Perform at most [max_steps] walks; [Some reason] once the session's
      own stop condition (target/deadline/budget/cancellation) resolves. *)

  val interrupt : t -> stop_reason -> unit
  (** Stop the session between quanta (scheduler-level cancellation or
      deadline); no-op when already stopped. *)

  val stopped : t -> stop_reason option

  val progress : t -> report
  (** Current estimate/CI snapshot; safe at any point, costs no walks. *)

  val outcome : t -> outcome
  (** Raises [Invalid_argument] while the session is still running. *)
end

val start_session :
  ?eager_checks:bool ->
  ?on_report:(report -> unit) ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  Session.t
(** Pick the plan (emitting [Plan_chosen]), build the engine and driver
    loop, and return the handle without performing any walks.  Raises
    [Invalid_argument] when the query admits no walk plan. *)

val run_session :
  ?eager_checks:bool ->
  ?on_report:(report -> unit) ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  outcome
(** The run-session entry point.  [cfg.sink] observes the whole run: plan
    choice ([Plan_chosen]), every walk and probe (via {!Walker.prepare}),
    report ticks and the stop reason (via {!Engine.Driver.run}).  Reports
    are recorded into [history] on every tick whether or not [on_report]
    is given.  A no-op sink changes nothing: fixed-seed estimates are
    bit-for-bit those of the uninstrumented driver.  Raises
    [Invalid_argument] when the query admits no walk plan. *)

type group_outcome = {
  groups : (Wj_storage.Value.t * report) list;  (** sorted by group key *)
  total_walks : int;
  group_elapsed : float;
}

module Group_session : sig
  type t
  (** Resumable group-by session; see {!Session} for the model. *)

  val advance : t -> max_steps:int -> stop_reason option
  val interrupt : t -> stop_reason -> unit

  val outcome : t -> group_outcome
  (** Raises [Invalid_argument] while the session is still running. *)
end

val start_group_by_session :
  ?on_group_report:(float -> (Wj_storage.Value.t * report) list -> unit) ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  Group_session.t
(** As {!start_session}, for GROUP BY queries.  Raises [Invalid_argument]
    when the query has no GROUP BY clause. *)

val run_group_by_session :
  ?on_group_report:(float -> (Wj_storage.Value.t * report) list -> unit) ->
  Run_config.t ->
  Query.t ->
  Registry.t ->
  group_outcome
(** Group-by variant (§3.5) on a {!Run_config.t}: one estimator per group;
    every walk counts in every group's sample size (misses are zeros),
    keeping each group's estimator unbiased.  [cfg.target] is ignored
    (there is no single CI to test).  Raises [Invalid_argument] when the
    query has no GROUP BY clause. *)
