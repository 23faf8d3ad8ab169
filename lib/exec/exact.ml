module Query = Wj_core.Query
module Walk_plan = Wj_core.Walk_plan
module Walker = Wj_core.Walker
module Trie = Wj_index.Trie
module Table = Wj_storage.Table
module Value = Wj_storage.Value
module Estimator = Wj_stats.Estimator

type result = {
  value : float;
  join_size : int;
  rows_visited : int;
}

type strategy = Nested_loop | Leapfrog | Auto

type accumulator = {
  mutable count : int;
  mutable sum : float;
  mutable sum_sq : float;
}

let new_acc () = { count = 0; sum = 0.0; sum_sq = 0.0 }

let acc_value agg acc =
  let n = float_of_int acc.count in
  match agg with
  | Estimator.Count -> n
  | Estimator.Sum -> acc.sum
  | Estimator.Avg -> if acc.count = 0 then nan else acc.sum /. n
  | Estimator.Variance ->
    if acc.count = 0 then nan
    else begin
      let mean = acc.sum /. n in
      (acc.sum_sq /. n) -. (mean *. mean)
    end
  | Estimator.Stdev ->
    if acc.count = 0 then nan
    else begin
      let mean = acc.sum /. n in
      sqrt (Float.max 0.0 ((acc.sum_sq /. n) -. (mean *. mean)))
    end

let pick_plan q registry = function
  | Some plan -> plan
  | None -> (
    match Walk_plan.enumerate ~max_plans:1 q registry with
    | plan :: _ -> plan
    | [] -> invalid_arg "Exact.aggregate: query admits no walk plan")

(* Short-circuiting conjunction over compiled checks. *)
let all_checks checks x =
  let n = Array.length checks in
  let rec go i = i >= n || (checks.(i) x && go (i + 1)) in
  go 0

(* Feeds every qualifying path to [emit]: the walker's compiled plan
   scanned from each start row in slot order. *)
let enumerate q registry plan emit =
  let prepared = Walker.prepare q registry plan in
  let path = Array.make (Query.k q) (-1) in
  let rows_visited = ref 0 in
  for start_row = 0 to Table.length q.Query.tables.(plan.Walk_plan.order.(0)) - 1 do
    rows_visited := !rows_visited + Walker.scan prepared path ~start_row emit
  done;
  !rows_visited

(* ---- Leapfrog (worst-case-optimal) execution --------------------------

   Variables are the equivalence classes of Eq-joined attributes; tables
   are query-local predicate-filtered tries keyed by their variables in
   global variable order; each variable is resolved by a leapfrog
   intersection of the distinct-key cursors of its participant tries.
   Band joins are residual filters applied while enumerating the matching
   row ranges at the leaves. *)

(* Union-find over (pos, col) attribute slots; variables are numbered by
   first appearance scanning [q.joins] left-to-right, so the elimination
   order — and hence the whole execution — is deterministic. *)
type lf_plan = {
  nvars : int;
  table_vars : (int * int) list array; (* per pos: (var, col), var-ascending *)
  participants : (int * int) list array; (* per var: (pos, level), pos-ascending *)
}

let analyze q =
  let k = Query.k q in
  let slots = Hashtbl.create 16 in
  let order = ref [] in
  let nslots = ref 0 in
  let intern pc =
    match Hashtbl.find_opt slots pc with
    | Some i -> i
    | None ->
      let i = !nslots in
      incr nslots;
      Hashtbl.add slots pc i;
      order := pc :: !order;
      i
  in
  let unions = ref [] in
  List.iter
    (fun (c : Query.join_cond) ->
      match c.op with
      | Query.Eq -> unions := (intern c.left, intern c.right) :: !unions
      | Query.Band _ ->
        (* Band attributes are not variables; the edge stays residual. *)
        ())
    q.Query.joins;
  let n = !nslots in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  List.iter (fun (a, b) -> parent.(find a) <- find b) (List.rev !unions);
  (* Canonical variable ids by first slot appearance. *)
  let var_of_root = Hashtbl.create 8 in
  let nvars = ref 0 in
  let slot_list = List.rev !order in
  let var_of_slot = Hashtbl.create 16 in
  List.iter
    (fun pc ->
      let r = find (Hashtbl.find slots pc) in
      let v =
        match Hashtbl.find_opt var_of_root r with
        | Some v -> v
        | None ->
          let v = !nvars in
          incr nvars;
          Hashtbl.add var_of_root r v;
          v
      in
      Hashtbl.replace var_of_slot pc v)
    slot_list;
  let table_vars = Array.make k [] in
  List.iter
    (fun ((pos, col) as pc) ->
      let v = Hashtbl.find var_of_slot pc in
      table_vars.(pos) <- (v, col) :: table_vars.(pos))
    (List.rev slot_list);
  Array.iteri
    (fun p l -> table_vars.(p) <- List.sort_uniq compare l)
    table_vars;
  let participants = Array.make !nvars [] in
  for p = k - 1 downto 0 do
    List.iteri
      (fun level (v, _) -> participants.(v) <- (p, level) :: participants.(v))
      table_vars.(p)
  done;
  { nvars = !nvars; table_vars; participants }

(* Leapfrog needs every table reachable through Eq variables: each table
   keyed by at least one variable, no variable keying two columns of one
   table (a within-table equality the trie layout cannot express), and
   the variable-sharing graph connected. *)
let leapfrog_applicable q =
  let k = Query.k q in
  let lf = analyze q in
  let keyed = Array.for_all (fun l -> l <> []) lf.table_vars in
  let no_dup =
    Array.for_all
      (fun l ->
        let vars = List.map fst l in
        List.length vars = List.length (List.sort_uniq compare vars))
      lf.table_vars
  in
  let connected =
    if k = 0 then true
    else begin
      let seen = Array.make k false in
      let rec dfs p =
        if not seen.(p) then begin
          seen.(p) <- true;
          List.iter
            (fun (v, _) ->
              List.iter (fun (p', _) -> dfs p') lf.participants.(v))
            lf.table_vars.(p)
        end
      in
      dfs 0;
      Array.for_all Fun.id seen
    end
  in
  keyed && no_dup && connected

exception Lf_done

let leapfrog_enumerate q emit =
  let k = Query.k q in
  let lf = analyze q in
  let rows_visited = ref 0 in
  let tries =
    Array.init k (fun p ->
        let columns = Array.of_list (List.map snd lf.table_vars.(p)) in
        let checks = Query.compile_predicates q p in
        let keep =
          if Array.length checks = 0 then None
          else Some (fun row -> all_checks checks row)
        in
        rows_visited := !rows_visited + Table.length q.Query.tables.(p);
        Trie.build_filtered ?keep q.Query.tables.(p) ~columns)
  in
  (* Residual band edges, checked at the later of their two positions
     while the leaf enumeration binds positions in ascending order. *)
  let residuals_at = Array.make k [] in
  List.iter
    (fun (c : Query.join_cond) ->
      match c.op with
      | Query.Eq -> ()
      | Query.Band _ ->
        let at = max (fst c.left) (fst c.right) in
        residuals_at.(at) <- Query.compile_join q c :: residuals_at.(at))
    q.Query.joins;
  let residuals_at = Array.map Array.of_list residuals_at in
  let lo = Array.make k 0 in
  let hi = Array.map Trie.length tries in
  let path = Array.make k (-1) in
  let rec emit_leaf p =
    if p = k then emit path
    else
      for s = lo.(p) to hi.(p) - 1 do
        let row = Trie.row tries.(p) s in
        incr rows_visited;
        path.(p) <- row;
        if all_checks residuals_at.(p) path then emit_leaf (p + 1)
      done
  in
  let rec solve v =
    if v = lf.nvars then emit_leaf 0
    else begin
      let ps = Array.of_list lf.participants.(v) in
      let curs =
        Array.map
          (fun (p, level) -> Trie.cursor tries.(p) ~level ~lo:lo.(p) ~hi:hi.(p))
          ps
      in
      let m = Array.length curs in
      try
        Array.iter (fun c -> if Trie.at_end c then raise Lf_done) curs;
        while true do
          (* Align every cursor on the current max key; a full round of
             equal keys is a match. *)
          let x = ref (Trie.key curs.(0)) in
          for i = 1 to m - 1 do
            if Trie.key curs.(i) > !x then x := Trie.key curs.(i)
          done;
          let all_eq = ref true in
          Array.iter
            (fun c ->
              if Trie.key c < !x then Trie.seek c !x;
              if Trie.at_end c then raise Lf_done;
              if Trie.key c <> !x then all_eq := false)
            curs;
          if !all_eq then begin
            let saved = Array.map (fun (p, _) -> (lo.(p), hi.(p))) ps in
            Array.iteri
              (fun i (p, _) ->
                let clo, chi = Trie.child curs.(i) in
                lo.(p) <- clo;
                hi.(p) <- chi)
              ps;
            solve (v + 1);
            Array.iteri
              (fun i (p, _) ->
                let slo, shi = saved.(i) in
                lo.(p) <- slo;
                hi.(p) <- shi)
              ps;
            Trie.next curs.(0);
            if Trie.at_end curs.(0) then raise Lf_done
          end
        done
      with Lf_done -> ()
    end
  in
  (try solve 0 with Lf_done -> ());
  !rows_visited

(* Leapfrog by default exactly where it wins and where it cannot disturb
   fixed-seed goldens: cyclic all-Eq queries.  Tree queries keep the
   nested-loop path bit for bit (summation order unchanged). *)
let resolve_strategy q = function
  | Nested_loop -> Nested_loop
  | Leapfrog ->
    if not (leapfrog_applicable q) then
      invalid_arg
        "Exact: leapfrog needs an Eq-join attribute on every table (connected, \
         no within-table equality)"
    else Leapfrog
  | Auto ->
    let cyclic = List.length q.Query.joins > Query.k q - 1 in
    let all_eq =
      List.for_all (fun (c : Query.join_cond) -> c.op = Query.Eq) q.Query.joins
    in
    if cyclic && all_eq && leapfrog_applicable q then Leapfrog else Nested_loop

let run_enumerate ?(strategy = Auto) ?plan q registry emit =
  match resolve_strategy q strategy with
  | Leapfrog -> leapfrog_enumerate q emit
  | Nested_loop | Auto ->
    enumerate q registry (pick_plan q registry plan) emit

(* Count a path and add its value to the sums the aggregate needs. *)
let accumulate q =
  let extract = Query.compile_expr q in
  fun acc path ->
    acc.count <- acc.count + 1;
    match q.Query.agg with
    | Estimator.Count -> ()
    | Estimator.Sum | Estimator.Avg | Estimator.Variance | Estimator.Stdev ->
      let v = extract path in
      acc.sum <- acc.sum +. v;
      acc.sum_sq <- acc.sum_sq +. (v *. v)

let aggregate ?strategy ?plan q registry =
  let acc = new_acc () in
  let rows_visited = run_enumerate ?strategy ?plan q registry (accumulate q acc) in
  { value = acc_value q.Query.agg acc; join_size = acc.count; rows_visited }

let group_aggregate ?strategy ?plan q registry =
  if q.Query.group_by = None then
    invalid_arg "Exact.group_aggregate: query has no GROUP BY";
  let groups : (Value.t, accumulator) Hashtbl.t = Hashtbl.create 16 in
  let accumulate = accumulate q in
  let emit path =
    let key = Query.group_key q path in
    let acc =
      match Hashtbl.find_opt groups key with
      | Some a -> a
      | None ->
        let a = new_acc () in
        Hashtbl.add groups key a;
        a
    in
    accumulate acc path
  in
  let rows_visited = run_enumerate ?strategy ?plan q registry emit in
  Hashtbl.fold
    (fun key acc l ->
      ( key,
        { value = acc_value q.Query.agg acc; join_size = acc.count; rows_visited } )
      :: l)
    groups []
  |> List.sort (fun (a, _) (b, _) -> Value.compare a b)

let join_size q registry =
  let q = { q with Query.agg = Estimator.Count } in
  (aggregate q registry).join_size
