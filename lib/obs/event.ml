type stop_reason = Target_reached | Time_up | Walk_budget_exhausted | Cancelled

type t =
  | Walk_started
  | Walk_succeeded of { cost : int }
  | Walk_failed of { depth : int; cost : int }
  | Index_probe of { pos : int; cost : int }
  | Row_access of { pos : int; row : int }
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

let describe = function
  | Walk_started -> "walk_started"
  | Walk_succeeded { cost } -> Printf.sprintf "walk_succeeded cost=%d" cost
  | Walk_failed { depth; cost } -> Printf.sprintf "walk_failed depth=%d cost=%d" depth cost
  | Index_probe { pos; cost } -> Printf.sprintf "index_probe pos=%d cost=%d" pos cost
  | Row_access { pos; row } -> Printf.sprintf "row_access pos=%d row=%d" pos row
  | Plan_chosen { description; granularity } ->
    Printf.sprintf "plan_chosen %s [%s]" description granularity
  | Nontree_reject { pos; edge } ->
    Printf.sprintf "nontree_reject pos=%d edge=%s" pos edge
  | Report p ->
    Printf.sprintf "report elapsed=%.3f walks=%d successes=%d estimate=%g +/-%g"
      p.Progress.elapsed p.Progress.walks p.Progress.successes p.Progress.estimate
      p.Progress.half_width
  | Stopped r -> "stopped " ^ stop_reason_name r
  | Session_admitted { session; label } ->
    Printf.sprintf "session_admitted session=%d label=%s" session label
  | Session_started { session } -> Printf.sprintf "session_started session=%d" session
  | Session_report { session; progress; deadline_left } ->
    Printf.sprintf "session_report session=%d walks=%d estimate=%g +/-%g%s" session
      progress.Progress.walks progress.Progress.estimate progress.Progress.half_width
      (match deadline_left with
      | None -> ""
      | Some d -> Printf.sprintf " deadline_left=%.3f" d)
  | Session_finished { session; outcome; reason } ->
    Printf.sprintf "session_finished session=%d outcome=%s%s" session outcome
      (match reason with None -> "" | Some r -> " reason=" ^ r)
  | Policy_pick { session; policy; width; queue_depth } ->
    Printf.sprintf "policy_pick session=%d policy=%s width=%g queue_depth=%d" session
      policy width queue_depth
