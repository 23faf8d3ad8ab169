(** The join query graph (§3.2) and its index-directed version (§4.1).

    Vertices are table positions; there is an (undirected) edge per join
    condition.  Directing: an edge may be walked a → b only when b carries
    an index on its side of the condition that can answer the condition's
    operator.  All plan generation and decomposition work off this
    structure. *)

type t

val of_query : Query.t -> Registry.t -> t
(** Build the graph; edge directions reflect the indexes currently
    registered in the registry. *)

val k : t -> int
(** Number of vertices (= table positions). *)

val conds_between : t -> int -> int -> Query.join_cond list
(** All join conditions linking the two positions (either orientation,
    returned as stored in the query). *)

val walkable : t -> from:int -> into:int -> Query.join_cond list
(** Conditions that can be walked from [from] into [into] (i.e. [into] has
    a suitable index).  Empty when the step is impossible. *)

val directed_succ : t -> int -> int list
(** Positions reachable in one directed step. *)

val reachable_set : t -> int -> bool array
(** Directed reachability closure from a vertex (includes the vertex). *)

val is_tree : t -> bool
(** True when the undirected query graph is acyclic (it is always connected
    by {!Query.make}'s validation). *)

val has_directed_spanning_tree : t -> bool
(** Does some vertex reach every other along directed edges?  This is the
    paper's sufficient-and-necessary condition for a valid walk order to
    exist. *)

val roots : t -> int list
(** Vertices whose directed reachability covers the whole graph. *)
