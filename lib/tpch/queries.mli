(** The paper's three benchmark queries (Q3, Q7, Q10) as {!Wj_core.Query}
    values, with the predicate knobs the experiments sweep.

    Table positions follow the FROM order below; the join graphs are:

    - Q3  (3 tables): customer — orders — lineitem (chain)
    - Q7  (6 tables): nation1 — supplier — lineitem — orders — customer —
      nation2 (chain through both nation aliases)
    - Q10 (4 tables): nation — customer — orders — lineitem (chain)

    All aggregate SUM(l_extendedprice * (1 - l_discount)) unless [agg]
    overrides it. *)

type spec = Q3 | Q7 | Q10

(** Predicate selection:
    - [Barebone]: no selection predicates (Fig. 8, 9).
    - [Standard]: the TPC-H predicates (Fig. 11-13, Tables 2, 3).
    - [One_date f]: exactly one date predicate keeping about fraction [f]
      of the predicate table's rows (Fig. 10's selectivity sweep).
    - [Scaled f]: all standard predicates, date windows scaled to fraction
      [f] of their full span (Fig. 11's sweep).
    - [Extra ps]: barebone plus caller-supplied predicates. *)
type variant =
  | Barebone
  | Standard
  | One_date of float
  | Scaled of float
  | Extra of Wj_core.Query.predicate list

val build :
  ?variant:variant ->
  ?agg:Wj_stats.Estimator.agg ->
  ?group_by_segment:bool ->
  spec ->
  Generator.dataset ->
  Wj_core.Query.t
(** [group_by_segment] adds GROUP BY c_mktsegment (only Q3 and Q10 have a
    customer table; raises [Invalid_argument] for Q7). *)

val name_of : spec -> string

val registry : Wj_core.Query.t -> Wj_core.Registry.t
(** Convenience: {!Wj_core.Registry.build_for_query}. *)
