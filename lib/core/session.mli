(** The unified session API: the query picks the driver.

    [start] runs a query without GROUP BY through {!Online.start_session}
    and a GROUP BY query through {!Online.start_group_by_session}, and
    erases the two session handles into one {!handle} of closures, both
    obeying the resumable-session model of {!Online.Session} (advance in
    bounded quanta, interrupt between quanta, outcome once stopped).  The
    service scheduler's [Scheduler.submit] hosts sessions through this
    surface only. *)

type outcome = Scalar of Online.outcome | Groups of Online.group_outcome

type handle = {
  advance : max_steps:int -> Engine.Driver.stop_reason option;
  interrupt : Engine.Driver.stop_reason -> unit;
  progress : unit -> Wj_obs.Progress.t option;
      (** current estimate/CI snapshot; [None] for a GROUP BY session,
          which has no single scalar progress view *)
  outcome : unit -> outcome;  (** raises [Invalid_argument] while still running *)
}

val start : Run_config.t -> Query.t -> Registry.t -> handle
(** Build (plan selection, engine setup) without performing any walks.
    [Scalar] outcomes come from queries without GROUP BY, [Groups] from
    queries with one.  Raises [Invalid_argument] when the query admits no
    walk plan. *)
