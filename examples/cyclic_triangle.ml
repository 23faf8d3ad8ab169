(* Cyclic queries (§3.3): a triangle join F(a,b) ⋈ G(b,c) ⋈ H(c,a).  The
   walk covers a spanning tree (say F -> G -> H) and the third edge
   (H.a = F.a) is verified after the walk; failures count as zeros.  The
   optimizer may instead fold that edge into the last step's trie
   (pre-intersection), which the printed plan shows.

   Every join column is indexed on demand, so a walk order always exists
   and the paper's directed-spanning-tree decomposition (§4.1, Appendix B)
   is never needed.

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
  Printf.printf "wander join estimate:  %.1f +/- %.1f  (plan %s)\n"
    out.final.estimate out.final.half_width out.plan_description
