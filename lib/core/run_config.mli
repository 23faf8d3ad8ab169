(** One record for everything a run session shares across drivers.

    The Online and Hybrid drivers (and {!Wj_sql.Engine} above them)
    share the same knobs: seed, confidence, budgets, reporting
    cadence, clock, cancellation, plan choice.  [Run_config.t] is the
    single source of truth for those knobs plus the observability
    {!Wj_obs.Sink.t}; every driver's [run_session] takes one. *)

type plan_choice =
  | Optimize of Optimizer.config
  | Fixed of Walk_plan.t
  | First_enumerated
      (** the plan in the order the query was written — the "PG plan"
          baseline of Table 2 *)

type t = {
  seed : int;  (** PRNG seed; each driver XORs in its own tag *)
  confidence : float;  (** CI confidence level, default 0.95 *)
  target : Wj_stats.Target.t option;  (** stop when the CI reaches this *)
  max_time : float;  (** seconds, on [clock] *)
  max_walks : int option;  (** walk/round/sample budget *)
  report_every : float option;  (** periodic report interval, seconds *)
  clock : Wj_util.Timer.t option;  (** [None] = wall clock *)
  should_stop : (unit -> bool) option;  (** cooperative cancellation *)
  plan_choice : plan_choice;
  sink : Wj_obs.Sink.t;  (** observability; default {!Wj_obs.Sink.noop} *)
  recorder : Wj_obs.Recorder.t option;
      (** flight recorder; when present, drivers tee its reports-only sink
          into [sink] and feed it convergence diagnostics *)
  backend : Wj_storage.Backend.t;
      (** storage backing for the session's tables; [In_memory] by
          default.  {!Wj_sql.Engine} applies a [Paged] backend to the
          catalog before binding, so indexes build from (and walks fault
          through) the segment files. *)
}

val make :
  ?seed:int ->
  ?confidence:float ->
  ?target:Wj_stats.Target.t ->
  ?max_time:float ->
  ?max_walks:int ->
  ?report_every:float ->
  ?clock:Wj_util.Timer.t ->
  ?should_stop:(unit -> bool) ->
  ?plan_choice:plan_choice ->
  ?sink:Wj_obs.Sink.t ->
  ?recorder:Wj_obs.Recorder.t ->
  ?backend:Wj_storage.Backend.t ->
  unit ->
  t
(** Defaults: seed 42, confidence 0.95, no target, 10 s, unlimited
    walks, no reports, wall clock, optimizer default config, no-op sink,
    no recorder, in-memory tables. *)

val with_sink : t -> Wj_obs.Sink.t -> t
(** Functional update of the observability sink. *)

val with_recorder : t -> Wj_obs.Recorder.t -> t
(** Functional update attaching a flight recorder. *)

val resolved_sink : t -> Wj_obs.Sink.t
(** [sink] teed with the recorder's reports-only sink when a recorder is
    attached; just [sink] otherwise.  The configured sink is the left
    (winning) side, so its metrics registry and trace are the ones drivers
    observe through. *)

val clock_or_wall : t -> Wj_util.Timer.t
(** The configured clock, or a fresh wall clock started now. *)
