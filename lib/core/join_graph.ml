type t = {
  k : int;
  pairs : (int * int, Query.join_cond list) Hashtbl.t; (* key has min first *)
  walk : (int * int, Query.join_cond list) Hashtbl.t; (* (from, into) directed *)
}

let key a b = if a <= b then (a, b) else (b, a)

let push tbl key cond =
  match Hashtbl.find_opt tbl key with
  | Some conds -> Hashtbl.replace tbl key (conds @ [ cond ])
  | None -> Hashtbl.add tbl key [ cond ]

let of_query q registry =
  let k = Query.k q in
  let pairs = Hashtbl.create 16 in
  let walk = Hashtbl.create 16 in
  List.iter
    (fun (cond : Query.join_cond) ->
      let (lp, _), (rp, rc) = (cond.left, cond.right) in
      let lc = snd cond.left in
      push pairs (key lp rp) cond;
      (* Walking lp -> rp requires an index on (rp, rc). *)
      if Registry.can_serve registry ~pos:rp ~column:rc ~op:cond.op then
        push walk (lp, rp) cond;
      (* Walking rp -> lp requires an index on (lp, lc). *)
      if Registry.can_serve registry ~pos:lp ~column:lc ~op:cond.op then
        push walk (rp, lp) cond)
    q.Query.joins;
  { k; pairs; walk }

let k t = t.k

let conds_between t a b =
  Option.value ~default:[] (Hashtbl.find_opt t.pairs (key a b))

let walkable t ~from ~into =
  Option.value ~default:[] (Hashtbl.find_opt t.walk (from, into))

let directed_succ t v =
  let out = ref [] in
  for u = t.k - 1 downto 0 do
    if u <> v && walkable t ~from:v ~into:u <> [] then out := u :: !out
  done;
  !out

let reachable_set t v =
  let seen = Array.make t.k false in
  let rec dfs x =
    if not seen.(x) then begin
      seen.(x) <- true;
      List.iter dfs (directed_succ t x)
    end
  in
  dfs v;
  seen

let is_tree t =
  (* Connected is guaranteed; a connected graph is a tree iff the number of
     distinct adjacent pairs is k - 1. *)
  Hashtbl.length t.pairs = t.k - 1

let roots t =
  let out = ref [] in
  for v = t.k - 1 downto 0 do
    if Array.for_all Fun.id (reachable_set t v) then out := v :: !out
  done;
  !out

let has_directed_spanning_tree t = roots t <> []
