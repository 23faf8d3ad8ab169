(** Stratified group-by sampling (§3.5 / §7 of the paper).

    Plain group-by wander join hits popular groups often and rare groups
    almost never, so small groups converge slowly.  When the GROUP BY
    attribute lives on a single table and carries an ordered index, the
    paper points out that walks can {e start} from that table — and then
    each group is its own sampling stratum: walks for group g start
    uniformly inside g's index range (Olken), so every group receives
    exactly the walks allocated to it.

    Per-group estimators are independent ordinary wander-join estimators of
    the group's sub-join (the walk carries the group membership as a start
    predicate), so all Appendix-A machinery applies unchanged.

    Three allocation policies decide which group the next walk serves:
    - [Equal]: round-robin (maximal boost for small groups);
    - [Proportional]: by group cardinality (mimics unstratified sampling);
    - [Adaptive]: the group with the widest relative confidence interval
      (a Neyman-style allocation driven by observed variance). *)

type allocation = Equal | Proportional | Adaptive

type group_state = {
  key : Wj_storage.Value.t;
  group_rows : int;  (** rows of the group-by table in this group *)
  report : Online.report;
}

type outcome = {
  strata : group_state list;  (** sorted by key *)
  total_walks : int;
  elapsed : float;
}

val run :
  ?seed:int ->
  ?allocation:allocation ->
  ?max_time:float ->
  ?max_walks:int ->
  Query.t ->
  Registry.t ->
  outcome
(** Every group's interval is at 95% confidence, and [max_time] is wall
    time.  Requires the query to have GROUP BY on an integer column with an
    index in the registry, and at least one walk plan starting at
    the group-by table; raises [Invalid_argument] otherwise. *)
