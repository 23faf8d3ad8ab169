module Estimator = Wj_stats.Estimator
module Table = Wj_storage.Table

type estimate = {
  members : int list;
  size : float;
  half_width : float;
  walks : int;
}

let subquery q ~members =
  let members = List.sort_uniq compare members in
  if members = [] then invalid_arg "Cardinality.subquery: empty member set";
  let remap = Hashtbl.create 8 in
  List.iteri (fun i pos -> Hashtbl.add remap pos i) members;
  let keep pos = Hashtbl.mem remap pos in
  let map pos = Hashtbl.find remap pos in
  let tables =
    List.map (fun pos -> (q.Query.names.(pos), q.Query.tables.(pos))) members
  in
  let joins =
    List.filter_map
      (fun (c : Query.join_cond) ->
        let (lp, lc), (rp, rc) = (c.left, c.right) in
        if keep lp && keep rp then
          Some { Query.left = (map lp, lc); right = (map rp, rc); op = c.op }
        else None)
      q.Query.joins
  in
  let predicates =
    List.filter_map
      (fun p ->
        match p with
        | Query.Cmp ({ table; _ } as r) ->
          if keep table then Some (Query.Cmp { r with table = map table }) else None
        | Query.Between ({ table; _ } as r) ->
          if keep table then Some (Query.Between { r with table = map table }) else None
        | Query.Member ({ table; _ } as r) ->
          if keep table then Some (Query.Member { r with table = map table }) else None)
      q.Query.predicates
  in
  Query.make ~tables ~joins ~predicates ~agg:Estimator.Count ~expr:(Query.Const 1.0) ()

let estimate_size ?(seed = 5) ?(max_walks = 20_000) ?(max_time = 0.2) q registry
    ~members =
  let members = List.sort_uniq compare members in
  let q' = subquery q ~members in
  let registry' = Registry.build_for_query ~store:(Registry.store registry) q' in
  if List.length members = 1 then begin
    (* Single table: the qualifying count is exact (and cheap). *)
    let table = q'.Query.tables.(0) in
    let count = ref 0 in
    Table.iteri (fun row _ -> if Query.row_passes q' 0 row then incr count) table;
    { members; size = float_of_int !count; half_width = 0.0; walks = 0 }
  end
  else begin
    let cfg =
      Run_config.make ~seed ~max_walks ~max_time
        ~plan_choice:(Run_config.Optimize { Optimizer.tau = 30; max_rounds = 500 })
        ()
    in
    let out = Online.run_session cfg q' registry' in
    {
      members;
      size = Float.max 0.0 out.final.estimate;
      half_width = out.final.half_width;
      walks = out.final.walks;
    }
  end

let suggest_order ?(seed = 5) ?(budget_walks = 50_000) q registry =
  let k = Query.k q in
  let adjacent = Array.make k [] in
  List.iter
    (fun (c : Query.join_cond) ->
      let lp = fst c.left and rp = fst c.right in
      if not (List.mem rp adjacent.(lp)) then adjacent.(lp) <- rp :: adjacent.(lp);
      if not (List.mem lp adjacent.(rp)) then adjacent.(rp) <- lp :: adjacent.(rp))
    q.Query.joins;
  let qualifying pos =
    let count = ref 0 in
    Table.iteri
      (fun row _ -> if Query.row_passes q pos row then incr count)
      q.Query.tables.(pos);
    !count
  in
  (* Seed the order with the most selective table. *)
  let start =
    List.init k Fun.id
    |> List.map (fun pos -> (qualifying pos, pos))
    |> List.sort compare |> List.hd |> snd
  in
  let per_probe = max 500 (budget_walks / (k * k)) in
  let order = ref [ start ] in
  let picked = ref [] in
  for _ = 2 to k do
    let members = !order in
    let frontier =
      List.concat_map (fun v -> adjacent.(v)) members
      |> List.sort_uniq compare
      |> List.filter (fun v -> not (List.mem v members))
    in
    let scored =
      List.map
        (fun cand ->
          let est =
            try estimate_size ~seed ~max_walks:per_probe q registry ~members:(cand :: members)
            with Invalid_argument _ ->
              { members = cand :: members; size = infinity; half_width = infinity; walks = 0 }
          in
          (est.size, cand, est))
        frontier
    in
    let _, best, est = List.sort compare scored |> List.hd in
    order := best :: !order;
    picked := est :: !picked
  done;
  (Array.of_list (List.rev !order), List.rev !picked)
