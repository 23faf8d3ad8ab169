(* Band (theta) joins: the paper's walk plans allow non-equality conditions
   such as R_j.A <= R_i.B <= R_j.A + 100, as long as the walked side has an
   ordered index (Section 4.1).

   Scenario: correlate two event streams — every reading must pair with the
   probe measurements taken within +/-30 ticks of it.  The ordered index
   (a one-column trie: a sorted (key, row) array) answers "how many probes
   fall in [t-30, t+30]" with two binary searches and "give me the k-th"
   with one array read, which is exactly what a random walk step needs.

   Shown twice: through the core API (Query.Band) and through the SQL
   dialect (ts2 BETWEEN ts - 30 AND ts + 30).

   Run with: dune exec examples/band_join.exe *)

module Schema = Wj_storage.Schema
module Table = Wj_storage.Table
module Value = Wj_storage.Value
module Query = Wj_core.Query

let () =
  let prng = Wj_util.Prng.create 21 in
  let readings =
    Table.create ~name:"readings"
      ~schema:(Schema.make [ { name = "ts"; ty = TInt }; { name = "celsius"; ty = TFloat } ])
      ()
  in
  for _ = 1 to 50_000 do
    ignore
      (Table.insert readings
         [| Int (Wj_util.Prng.int prng 1_000_000); Float (15.0 +. Wj_util.Prng.float prng 20.0) |])
  done;
  let probes =
    Table.create ~name:"probes"
      ~schema:(Schema.make [ { name = "ts2"; ty = TInt }; { name = "dust"; ty = TFloat } ])
      ()
  in
  for _ = 1 to 50_000 do
    ignore
      (Table.insert probes
         [| Int (Wj_util.Prng.int prng 1_000_000); Float (Wj_util.Prng.float prng 80.0) |])
  done;

  (* Core API: probes.ts2 - readings.ts in [-30, +30]. *)
  let q =
    Query.make
      ~tables:[ ("readings", readings); ("probes", probes) ]
      ~joins:[ { left = (0, 0); right = (1, 0); op = Band { lo = -30; hi = 30 } } ]
      ~agg:Avg
      ~expr:(Mul (Col (0, 1), Col (1, 1))) (* celsius * dust over matched pairs *)
      ()
  in
  let registry = Wj_core.Registry.build_for_query q in
  let exact = Wj_exec.Exact.aggregate q registry in
  Printf.printf "pairs within +/-30 ticks: %d; exact AVG(celsius*dust) = %.4f\n%!"
    exact.join_size exact.value;
  let out =
    Wj_core.Online.run_session
      (Wj_core.Run_config.make ~seed:2 ~max_time:1.0 ())
      q registry
  in
  Printf.printf "online estimate after %.1fs: %.4f +/- %.4f  (plan %s)\n\n"
    out.final.elapsed out.final.estimate out.final.half_width out.plan_description;

  (* Same thing through SQL. *)
  let catalog = Wj_storage.Catalog.create () in
  Wj_storage.Catalog.add_table catalog readings;
  Wj_storage.Catalog.add_table catalog probes;
  let r =
    Wj_sql.Engine.execute ~seed:3 catalog
      {| SELECT ONLINE COUNT(*), AVG(celsius * dust)
         FROM readings, probes
         WHERE ts2 BETWEEN ts - 30 AND ts + 30
         WITHINTIME 1 |}
  in
  print_string (Wj_sql.Engine.render r)
