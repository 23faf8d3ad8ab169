(** Walk plans: the physical plans of wander join (§4.1).

    A plan fixes the walk order and, for every table entered, which earlier
    table ("parent") and join condition the step walks through.  Join
    conditions that link the new table to other already-bound tables are
    non-tree edges: they are not walked but verified (§3.3).

    For a k-table query the same order can admit several parent choices, so
    plans are enumerated as (order, parent assignment) pairs, exactly the
    backtracking enumeration the paper describes. *)

type fold = {
  edge : Query.join_cond;  (** as listed in the query, for labelling *)
  oriented : Query.join_cond;
      (** flipped so the step's table is the right side; its right column
          is the trie level the edge narrows *)
}

type intersect = {
  itrie : Wj_index.Index.t;
      (** [Trie] kind over (tree column :: folded edge columns) *)
  folds : fold list;  (** one per trie level after the tree key *)
}

type step = {
  into : int;  (** table position being entered *)
  parent : int;  (** earlier position the step jumps back to *)
  cond : Query.join_cond;
      (** oriented so that [parent] is the left side and [into] the right *)
  index : Wj_index.Index.t;  (** index on [into]'s side of the condition *)
  isect : intersect option;
      (** constraint pre-intersection: instead of sampling the tree-edge
          neighbour set and verifying non-tree edges afterwards, narrow
          [itrie] by the tree key and each folded edge's key and sample
          uniformly from the intersected range.  The intersected count
          replaces the tree-edge count in the HT weight, which keeps the
          estimator unbiased (rows that would have been rejected are
          excluded from the sample space and contributed zero anyway).
          Folded edges are removed from the plan's [nontree] list. *)
}

type t = {
  order : int array;  (** order.(0) is the start table *)
  steps : step array;  (** steps.(i) enters order.(i+1) *)
  nontree : Query.join_cond list;
}

val enumerate : ?max_plans:int -> Query.t -> Registry.t -> t list
(** All walk plans, capped at [max_plans] (default 256).  A step may walk
    a join condition into a table only when that table's side of the
    condition has an index in the registry (the index-directed join
    graph, §4.1); the conditions between two tables are tried in query
    order.  Empty when the directed graph admits no valid walk order,
    which a registry from {!Registry.build_for_query} never leaves: it
    indexes both sides of every join condition. *)

val of_order : Query.t -> Registry.t -> int array -> t option
(** The plan following the given table order, choosing for each step the
    first viable parent edge; [None] if the order is invalid.  This mirrors
    "the plan constructed from the input query" used as the PostgreSQL
    baseline in Table 2. *)

val intersect_variants : Query.t -> Registry.t -> t -> t list
(** The plan itself followed by its index-granularity variants: one per
    non-empty subset of foldable non-tree edges (at most 8 plans in all),
    each folding its edges into the step binding the edge's
    later endpoint via a multi-column trie ({!step.isect}).  An edge is
    foldable when its step's tree edge is [Eq]; at most one [Band] edge
    may fold per step (it narrows the trie's last level as a key range).
    Returns [[plan]] unchanged for acyclic plans — enumeration order and
    fixed-seed behaviour of tree queries are untouched.  Tries are built
    through {!Registry.ensure_trie} (cached, physically shared). *)

val granularity : t -> string
(** ["plain"] for a plan that folds no edge, ["trie-intersect(n)"] when
    [n] non-tree edges are folded — the index-granularity axis of
    [Plan_chosen]. *)

val describe : Query.t -> t -> string
(** e.g. ["customer -> orders -> lineitem (non-tree: ...)"]; folded edges
    are listed under ["intersect: ..."] instead of ["non-tree: ..."], so
    variants are distinct plan labels for the recorder's per-plan
    attribution. *)
