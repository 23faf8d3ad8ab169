(* Cyclic queries and decomposition (§3.3, §4.1).

   Part 1 — a triangle join F(a,b) ⋈ G(b,c) ⋈ H(c,a): the walk covers a
   spanning tree (F -> G -> H) and the third edge (H.a = F.a) is verified
   after the walk; failures count as zeros.

   Part 2 — a 4-table chain A - B - D - C whose middle join column is
   unindexed on both sides: no directed spanning tree exists, the graph
   decomposes into components {A, B} and {C, D}, and the hybrid
   wander/ripple estimator combines the two walk streams.

   Run with: dune exec examples/cyclic_triangle.exe *)

module Schema = Wj_storage.Schema
module Table = Wj_storage.Table
module Value = Wj_storage.Value
module Query = Wj_core.Query

let two_int_table name c1 c2 rows =
  let t =
    Table.create ~name
      ~schema:(Schema.make [ { name = c1; ty = TInt }; { name = c2; ty = TInt } ])
      ()
  in
  List.iter (fun (a, b) -> ignore (Table.insert t [| Int a; Int b |])) rows;
  t

let () =
  let prng = Wj_util.Prng.create 17 in
  let dom = 60 in
  let random_pairs n =
    List.init n (fun _ -> (Wj_util.Prng.int prng dom, Wj_util.Prng.int prng dom))
  in
  (* ---- Part 1: triangle ---------------------------------------------- *)
  let f = two_int_table "f" "a" "b" (random_pairs 4000) in
  let g = two_int_table "g" "b" "c" (random_pairs 4000) in
  let h = two_int_table "h" "c" "a" (random_pairs 4000) in
  let triangle =
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq }; (* f.b = g.b *)
          { left = (1, 1); right = (2, 0); op = Eq }; (* g.c = h.c *)
          { left = (2, 1); right = (0, 0); op = Eq }; (* h.a = f.a *)
        ]
      ~agg:Count ~expr:(Const 1.0) ()
  in
  let registry = Wj_core.Registry.build_for_query triangle in
  let exact = Wj_exec.Exact.aggregate triangle registry in
  Printf.printf "triangle count, exact: %.0f\n" exact.value;
  let out =
    Wj_core.Online.run_session
      (Wj_core.Run_config.make ~seed:8 ~max_time:1.0 ())
      triangle registry
  in
  Printf.printf "wander join estimate:  %.1f +/- %.1f  (plan %s)\n\n"
    out.final.estimate out.final.half_width out.plan_description;

  (* ---- Part 2: chain with an unindexed middle edge -------------------- *)
  let a = two_int_table "a" "k" "x" (random_pairs 3000) in
  let b = two_int_table "b" "x" "m" (random_pairs 3000) in
  let dd = two_int_table "d" "m" "y" (random_pairs 3000) in
  let c = two_int_table "c" "y" "k2" (random_pairs 3000) in
  let chain =
    Query.make
      ~tables:[ ("a", a); ("b", b); ("d", dd); ("c", c) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq }; (* a.x = b.x *)
          { left = (1, 1); right = (2, 0); op = Eq }; (* b.m = d.m (unindexed) *)
          { left = (3, 0); right = (2, 1); op = Eq }; (* c.y = d.y *)
        ]
      ~agg:Count ~expr:(Const 1.0) ()
  in
  (* Index only a.x<-b and d<-c directions: b.x and d.y get indexes, the
     middle b.m = d.m edge gets none. *)
  let partial = Wj_core.Registry.create () in
  Wj_core.Registry.add partial ~pos:1 ~column:0 (Wj_index.Index.build_trie b ~columns:[ 0 ]);
  Wj_core.Registry.add partial ~pos:2 ~column:1 (Wj_index.Index.build_trie dd ~columns:[ 1 ]);
  let graph = Wj_core.Join_graph.of_query chain partial in
  Printf.printf "chain with unindexed middle edge; directed spanning tree exists: %b\n"
    (Wj_core.Join_graph.has_directed_spanning_tree graph);
  let components = Wj_core.Decompose.decompose graph in
  List.iter
    (fun (comp : Wj_core.Decompose.component) ->
      Printf.printf "  component rooted at %s: {%s}\n" chain.names.(comp.root)
        (String.concat ", " (List.map (fun v -> chain.names.(v)) comp.members)))
    components;
  (* Ground truth needs full indexes; the hybrid run uses only the partial
     registry. *)
  let full = Wj_core.Registry.build_for_query chain in
  let exact2 = Wj_exec.Exact.aggregate chain full in
  let hy =
    Wj_core.Hybrid.run_session
      (Wj_core.Run_config.make ~seed:4 ~max_time:3.0 ())
      chain partial
  in
  Printf.printf "exact chain count: %.0f\n" exact2.value;
  Printf.printf "hybrid estimate:   %.1f +/- %.1f  (%d walks across %d components)\n"
    hy.estimate hy.half_width hy.walks (List.length hy.components);
  Printf.printf "component plans: %s\n" (String.concat " | " hy.component_plans)
