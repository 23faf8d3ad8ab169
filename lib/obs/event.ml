type stop_reason = Target_reached | Time_up | Walk_budget_exhausted | Cancelled

type t =
  | Walk_started
  | Walk_succeeded of { cost : int }
  | Walk_failed of { depth : int; cost : int }
  | Plan_chosen of { description : string; granularity : string }
  | Nontree_reject of { pos : int; edge : string }
  | Report of Progress.t
  | Stopped of stop_reason
  | Session_admitted of { session : int; label : string }
  | Session_started of { session : int }
  | Session_report of {
      session : int;
      progress : Progress.t;
      deadline_left : float option;
    }
  | Session_finished of { session : int; outcome : string; reason : string option }
  | Policy_pick of { session : int; policy : string; width : float; queue_depth : int }

let stop_reason_name = function
  | Target_reached -> "target_reached"
  | Time_up -> "time_up"
  | Walk_budget_exhausted -> "walk_budget_exhausted"
  | Cancelled -> "cancelled"
