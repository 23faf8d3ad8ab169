(** The typed event taxonomy of a run session.

    Every observable moment of the execution stack is one constructor:
    walk lifecycle (started / succeeded / failed-at-depth), driver
    milestones (plan chosen, report tick, stop reason) and scheduler
    milestones.  The walk lifecycle is the walker's only observation
    hook: the I/O simulator charges its virtual clock once per
    [Walk_succeeded] / [Walk_failed], from the walk's [cost] and the
    page faults the walk took.

    Emission is pay-for-what-you-use: producers construct an event only
    when a sink with an event callback is attached ({!Sink.wants_events}),
    so the default no-op sink costs one branch per site. *)

type stop_reason = Target_reached | Time_up | Walk_budget_exhausted | Cancelled
(** Canonical stop taxonomy; [Engine.Driver.stop_reason] aliases it. *)

type t =
  | Walk_started
  | Walk_succeeded of { cost : int }
      (** [cost]: abstract index-entry accesses + tuple fetches of the walk. *)
  | Walk_failed of { depth : int; cost : int }
      (** [depth]: tables bound before the walk died (§3.1 failure). *)
  | Plan_chosen of { description : string; granularity : string }
      (** The driver picked a walk plan; [granularity] is the plan's
          index-granularity axis ({!Wj_core.Walk_plan.granularity}:
          ["plain"], or ["trie-intersect(n)"] when [n] non-tree edges are
          folded into trie pre-intersection steps). *)
  | Nontree_reject of { pos : int; edge : string }
      (** A walk died on a non-tree edge at table position [pos]; [edge]
          is the edge's label (["f~h"]), attributing rejects per edge.
          Fired both when a bound row fails the check and when a
          pre-intersected candidate set comes up empty. *)
  | Report of Progress.t  (** Periodic report tick. *)
  | Stopped of stop_reason  (** The driver resolved its stop condition. *)
  | Session_admitted of { session : int; label : string }
      (** A scheduler accepted a session into its queue ({!Wj_service}). *)
  | Session_started of { session : int }
      (** The session left the admission queue and began running. *)
  | Session_report of {
      session : int;
      progress : Progress.t;
      deadline_left : float option;
    }
      (** A scheduler-level progress report for one session (distinct from
          the session's own driver [Report] ticks).  [deadline_left] is the
          remaining seconds of the session's deadline, when it has one. *)
  | Session_finished of { session : int; outcome : string; reason : string option }
      (** The session reached a terminal state; [outcome] is the terminal
          state's name (["done"], ["cancelled"], ["deadline_exceeded"]) —
          a string so this module stays below the service layer in the
          dependency order.  [reason] is the driver's
          {!stop_reason_name}, when the session ran long enough for its
          driver to resolve one. *)
  | Policy_pick of { session : int; policy : string; width : float; queue_depth : int }
      (** A scheduling policy granted the next quantum to [session].
          [width] is the CI half-width the decision was based on
          ([nan] until the session has produced an estimate), and
          [queue_depth] the number of runnable candidates considered —
          together they make ["why did Widest_ci run that one?"]
          answerable from the event stream alone. *)

val stop_reason_name : stop_reason -> string
(** Lowercase snake-case name, also used as the metric-family suffix of
    the driver's [driver.stop.<reason>] counters. *)
