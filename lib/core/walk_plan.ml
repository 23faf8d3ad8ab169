type fold = {
  edge : Query.join_cond; (* as listed in the query, for labelling *)
  oriented : Query.join_cond; (* flipped so the step's table is the right side *)
}

type intersect = {
  itrie : Wj_index.Index.t; (* Trie kind: tree column :: folded edge columns *)
  folds : fold list;
}

type step = {
  into : int;
  parent : int;
  cond : Query.join_cond;
  index : Wj_index.Index.t;
  isect : intersect option;
}

type t = {
  order : int array;
  steps : step array;
  nontree : Query.join_cond list;
}

(* The index-directed join graph (§4.1): the conditions, in query order,
   that can be walked from [from] into [into] — those linking the two
   positions whose [into] side carries an index. *)
let walkable q registry ~from ~into =
  List.filter
    (fun (c : Query.join_cond) ->
      let (lp, lc), (rp, rc) = (c.left, c.right) in
      (lp = from && rp = into && Registry.find registry ~pos:rp ~column:rc <> None)
      || (rp = from && lp = into && Registry.find registry ~pos:lp ~column:lc <> None))
    q.Query.joins

(* Orients [cond] with [parent] on the left and [into] on the right, and
   fetches the index backing the step. *)
let make_step registry ~parent ~into cond =
  let cond = if fst cond.Query.left = parent then cond else Query.flip cond in
  let _, col = cond.Query.right in
  match Registry.find registry ~pos:into ~column:col with
  | Some index -> { into; parent; cond; index; isect = None }
  | None -> invalid_arg "Walk_plan.make_step: missing index"

(* Conditions not used as tree steps become non-tree edges. *)
let nontree_of q used =
  List.filter (fun c -> not (List.memq c used)) q.Query.joins

let enumerate ?(max_plans = 256) q registry =
  let k = Query.k q in
  let plans = ref [] in
  let count = ref 0 in
  let exception Done in
  let rec extend in_set order_rev steps_rev used depth =
    if depth = k then begin
      let order = Array.of_list (List.rev order_rev) in
      let steps = Array.of_list (List.rev steps_rev) in
      plans := { order; steps; nontree = nontree_of q used } :: !plans;
      incr count;
      if !count >= max_plans then raise Done
    end
    else
      for into = 0 to k - 1 do
        if not in_set.(into) then
          for parent = 0 to k - 1 do
            if in_set.(parent) then
              List.iter
                (fun cond ->
                  let step = make_step registry ~parent ~into cond in
                  in_set.(into) <- true;
                  extend in_set (into :: order_rev) (step :: steps_rev)
                    (cond :: used) (depth + 1);
                  in_set.(into) <- false)
                (walkable q registry ~from:parent ~into)
          done
      done
  in
  (try
     for start = 0 to k - 1 do
       let in_set = Array.make k false in
       in_set.(start) <- true;
       extend in_set [ start ] [] [] 1
     done
   with Done -> ());
  List.rev !plans

let of_order q registry order =
  let k = Query.k q in
  if Array.length order <> k then None
  else begin
    let rec build i steps used =
      if i = k then
        Some
          {
            order = Array.copy order;
            steps = Array.of_list (List.rev steps);
            nontree = nontree_of q used;
          }
      else begin
        let into = order.(i) in
        let candidate =
          Array.to_seq order |> Seq.take i
          |> Seq.filter_map (fun parent ->
                 match walkable q registry ~from:parent ~into with
                 | [] -> None
                 | cond :: _ -> Some (parent, cond))
          |> Seq.uncons
        in
        match candidate with
        | None -> None
        | Some ((parent, cond), _) ->
          build (i + 1) (make_step registry ~parent ~into cond :: steps) (cond :: used)
      end
    in
    build 1 [] []
  end

(* ---- Index-granularity variants (pre-intersection) -------------------- *)

(* A non-tree edge can be folded into the step binding its later endpoint:
   instead of sampling from the tree-edge neighbour set and verifying the
   edge afterwards, the step narrows a multi-column trie by the tree key
   and then by each folded edge's key, and samples uniformly from the
   intersected slot range.  Sampling stays unbiased — the intersected
   count is exactly the number of rows that would have survived the
   verification, and it replaces the tree-edge count in the HT weight —
   while rows that would have been rejected never enter the sample space.

   Eligibility: the step's tree edge must be Eq (its key pins trie level
   0 to a single node), folded Eq edges pin one level each, and at most
   one Band edge may be folded per step, ordered last (a key *range* is
   only a valid narrow at the final level, see {!Wj_index.Trie.narrow_start}). *)
let foldable_edges q (plan : t) =
  let k = Query.k q in
  let rank = Array.make k (-1) in
  Array.iteri (fun i pos -> rank.(pos) <- i) plan.order;
  List.filter_map
    (fun (c : Query.join_cond) ->
      let lp = fst c.left and rp = fst c.right in
      let into = if rank.(lp) > rank.(rp) then lp else rp in
      let si = rank.(into) - 1 in
      let step = plan.steps.(si) in
      if step.cond.Query.op <> Query.Eq then None
      else begin
        let oriented = if fst c.right = into then c else Query.flip c in
        Some (si, { edge = c; oriented })
      end)
    plan.nontree

exception Unfoldable

let fold_variant q registry (plan : t) chosen =
  let by_step = Hashtbl.create 4 in
  List.iter
    (fun (si, f) ->
      Hashtbl.replace by_step si
        (f :: (Option.value ~default:[] (Hashtbl.find_opt by_step si))))
    (List.rev chosen);
  let steps =
    Array.mapi
      (fun si step ->
        match Hashtbl.find_opt by_step si with
        | None -> step
        | Some folds ->
          let eqs, bands =
            List.partition (fun f -> f.oriented.Query.op = Query.Eq) folds
          in
          if List.length bands > 1 then raise Unfoldable;
          let folds = eqs @ bands in
          let columns =
            snd step.cond.Query.right
            :: List.map (fun f -> snd f.oriented.Query.right) folds
          in
          let itrie =
            Registry.ensure_trie registry q.Query.tables.(step.into)
              ~pos:step.into ~columns
          in
          { step with isect = Some { itrie; folds } })
      plan.steps
  in
  let folded = List.map (fun (_, f) -> f.edge) chosen in
  let nontree =
    List.filter (fun c -> not (List.memq c folded)) plan.nontree
  in
  { plan with steps; nontree }

let intersect_variants q registry (plan : t) =
  match foldable_edges q plan with
  | [] -> [ plan ]
  | foldable ->
    let fs = Array.of_list foldable in
    let m = Array.length fs in
    let variants = ref [] in
    let count = ref 1 in
    (try
       for mask = 1 to (1 lsl min m 10) - 1 do
         if !count >= 8 then raise Exit;
         let chosen = ref [] in
         for j = m - 1 downto 0 do
           if mask land (1 lsl j) <> 0 then chosen := fs.(j) :: !chosen
         done;
         match fold_variant q registry plan !chosen with
         | v ->
           variants := v :: !variants;
           incr count
         | exception Unfoldable -> ()
       done
     with Exit -> ());
    plan :: List.rev !variants

let granularity t =
  let folds =
    Array.fold_left
      (fun acc s ->
        acc + match s.isect with None -> 0 | Some i -> List.length i.folds)
      0 t.steps
  in
  if folds = 0 then "plain" else Printf.sprintf "trie-intersect(%d)" folds

let describe q t =
  let names = q.Query.names in
  let order_str =
    String.concat " -> " (Array.to_list (Array.map (fun i -> names.(i)) t.order))
  in
  let cond_str (c : Query.join_cond) =
    Printf.sprintf "%s~%s" names.(fst c.left) names.(fst c.right)
  in
  let folded =
    Array.to_list t.steps
    |> List.concat_map (fun s ->
           match s.isect with
           | None -> []
           | Some i -> List.map (fun f -> f.edge) i.folds)
  in
  let parts =
    (if t.nontree = [] then []
     else [ "non-tree: " ^ String.concat ", " (List.map cond_str t.nontree) ])
    @
    if folded = [] then []
    else [ "intersect: " ^ String.concat ", " (List.map cond_str folded) ]
  in
  if parts = [] then order_str
  else Printf.sprintf "%s (%s)" order_str (String.concat "; " parts)
