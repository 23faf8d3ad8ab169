(* The unified session constructor: the query decides the driver — a
   GROUP BY query runs the group-by session, anything else the scalar
   online session — and both handle types erase into one record of
   closures.  This is what the service scheduler builds on. *)

type outcome = Scalar of Online.outcome | Groups of Online.group_outcome

type handle = {
  advance : max_steps:int -> Engine.Driver.stop_reason option;
  interrupt : Engine.Driver.stop_reason -> unit;
  progress : unit -> Wj_obs.Progress.t option;
  outcome : unit -> outcome;
}

let start (cfg : Run_config.t) q registry =
  match q.Query.group_by with
  | None ->
    let s = Online.start_session cfg q registry in
    {
      advance = (fun ~max_steps -> Online.Session.advance s ~max_steps);
      interrupt = Online.Session.interrupt s;
      progress = (fun () -> Some (Online.Session.progress s));
      outcome = (fun () -> Scalar (Online.Session.outcome s));
    }
  | Some _ ->
    let s = Online.start_group_by_session cfg q registry in
    {
      advance = (fun ~max_steps -> Online.Group_session.advance s ~max_steps);
      interrupt = Online.Group_session.interrupt s;
      progress = (fun () -> None);
      outcome = (fun () -> Groups (Online.Group_session.outcome s));
    }
