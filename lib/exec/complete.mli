(** Run-to-completion mode (§3.7 of the paper).

    "A more practical solution is to simply run wander join and a
    traditional full join algorithm in parallel, and terminate wander join
    when the full join completes.  Since wander join operates in the
    read-only mode on the data and indexes, it has little interference with
    the full join algorithm."

    [run] spawns the exact executor in its own domain while wander join
    streams estimates in the calling domain; as soon as the full join
    lands, wander join is cancelled and the exact answer is returned along
    with every online report produced in the meantime. *)

type result = {
  exact : Exact.result;
  exact_time : float;  (** wall seconds the full join needed *)
  online : Wj_core.Online.outcome;
      (** the online run, cancelled when the full join finished (or stopped
          earlier by its own target) *)
}

val run :
  ?seed:int ->
  ?confidence:float ->
  ?target:Wj_stats.Target.t ->
  ?report_every:float ->
  ?on_report:(Wj_core.Online.report -> unit) ->
  Wj_core.Query.t ->
  Wj_core.Registry.t ->
  result
(** Raises [Invalid_argument] when the query admits no walk plan. *)
