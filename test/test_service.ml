(* Tests for wj_service: the concurrent session scheduler.

   The heart of the suite is the determinism property: a session scheduled
   among N peers produces bit-for-bit the same report trajectory and final
   estimate as the same session run alone (and as a plain Online.run_session
   with no scheduler at all).  Around it: deadline expiry, mid-run
   cancellation within one quantum, FIFO admission, per-session scoped
   metrics, and serve-mode equivalence over a TPC-H catalog with 16
   concurrent statements. *)

module Scheduler = Wj_service.Scheduler
module Token = Wj_service.Token
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Timer = Wj_util.Timer
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event
module Progress = Wj_obs.Progress
module Metrics = Wj_obs.Metrics
module Snapshot = Wj_obs.Snapshot
module Estimator = Wj_stats.Estimator

(* Every admission below rides the unified [Scheduler.submit]; scalar
   sessions unwrap their [Session.outcome] with this helper. *)
let scalar = function Some (Wj_core.Session.Scalar o) -> Some o | _ -> None

(* ---- data builders (chain join as in test_core/test_obs) --------------- *)

let int_table name cols rows =
  let schema =
    Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols)
  in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r ->
      ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

let chain_query () =
  let r1 =
    int_table "r1" [ "a"; "b" ]
      [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ]; [ 4; 30 ]; [ 5; 30 ]; [ 6; 40 ]; [ 7; 50 ] ]
  in
  let r2 =
    int_table "r2" [ "b"; "c" ]
      [ [ 10; 100 ]; [ 10; 200 ]; [ 20; 200 ]; [ 30; 300 ]; [ 40; 300 ]; [ 40; 400 ];
        [ 99; 999 ] ]
  in
  let r3 =
    int_table "r3" [ "c"; "d" ]
      [ [ 100; 7 ]; [ 200; 11 ]; [ 200; 13 ]; [ 300; 17 ]; [ 400; 19 ]; [ 500; 23 ] ]
  in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()

(* A session config that stops on its walk budget only: virtual clock
   (elapsed stays 0, so time never expires and reports never time-fire)
   and a fixed plan, so every stop/report decision is keyed on the
   session's own walk count. *)
let walk_cfg ~seed ~max_walks () =
  Run_config.make ~seed ~max_walks ~max_time:3600.0 ~clock:(Timer.virtual_ ())
    ~plan_choice:Run_config.First_enumerated ()

let bits = Int64.bits_of_float
let float_eq a b = Int64.equal (bits a) (bits b)

(* One trajectory point per scheduler-level report: own-walk count plus
   the estimate/CI bits at that point. *)
type point = { p_walks : int; p_est : int64; p_hw : int64 }

let point_of (p : Progress.t) =
  { p_walks = p.Progress.walks; p_est = bits p.Progress.estimate; p_hw = bits p.Progress.half_width }

(* Run [cfgs] to completion under one scheduler; return per-submission
   trajectories (reverse order) and outcomes. *)
let run_fleet ?(quantum = 64) ?(max_live = 16) ?(policy = Scheduler.Round_robin)
    cfgs q reg =
  let reports : (int, point list ref) Hashtbl.t = Hashtbl.create 8 in
  let trail id =
    match Hashtbl.find_opt reports id with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add reports id r;
      r
  in
  let sink =
    Sink.of_fn (function
      | Event.Session_report { session; progress; deadline_left = _ } ->
        let r = trail session in
        r := point_of progress :: !r
      | _ -> ())
  in
  let sched =
    Scheduler.create ~quantum ~max_live ~policy ~sink ~clock:(Timer.virtual_ ()) ()
  in
  let sessions = List.map (fun cfg -> Scheduler.submit sched cfg q reg) cfgs in
  Scheduler.drain sched;
  List.map
    (fun s ->
      let out =
        match scalar (Scheduler.result s) with
        | Some o -> o
        | None -> Alcotest.fail "session produced no outcome"
      in
      (!(trail (Scheduler.id s)), out))
    sessions

(* ---- determinism: alone = interleaved = unscheduled --------------------- *)

let same_trajectory (a : point list) (b : point list) =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.p_walks = y.p_walks
         && Int64.equal x.p_est y.p_est
         && Int64.equal x.p_hw y.p_hw)
       a b

let interleaving_determinism =
  QCheck.Test.make ~name:"trajectory alone = interleaved with 1-4 peers" ~count:20
    QCheck.(
      quad (int_range 0 10_000) (int_range 200 1_500) (int_range 1 4) bool)
    (fun (seed, max_walks, peers, widest) ->
      let policy = if widest then Scheduler.Widest_ci else Scheduler.Round_robin in
      let q = chain_query () in
      let reg = Registry.build_for_query q in
      let target = walk_cfg ~seed ~max_walks () in
      let peer_cfgs =
        List.init peers (fun i ->
            walk_cfg ~seed:(seed + (31 * (i + 1)))
              ~max_walks:(200 + (137 * i mod 1200))
              ())
      in
      (* Alone under the scheduler. *)
      let alone = run_fleet ~policy [ target ] q reg in
      let alone_traj, alone_out = List.hd alone in
      (* Interleaved: target submitted first among peers. *)
      let fleet = run_fleet ~policy (target :: peer_cfgs) q reg in
      let fleet_traj, fleet_out = List.hd fleet in
      (* Unscheduled reference run. *)
      let direct = Online.run_session target q reg in
      same_trajectory alone_traj fleet_traj
      && alone_out.Online.final.walks = fleet_out.Online.final.walks
      && float_eq alone_out.Online.final.estimate fleet_out.Online.final.estimate
      && float_eq alone_out.Online.final.half_width fleet_out.Online.final.half_width
      && direct.Online.final.walks = fleet_out.Online.final.walks
      && float_eq direct.Online.final.estimate fleet_out.Online.final.estimate)

(* ---- deadlines ---------------------------------------------------------- *)

let test_deadline_running () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let clock = Timer.virtual_ () in
  let sched = Scheduler.create ~quantum:64 ~clock () in
  (* Effectively unbounded walk budget; only the deadline can stop it. *)
  let s =
    Scheduler.submit sched ~deadline:5.0
      (walk_cfg ~seed:3 ~max_walks:max_int ())
      q reg
  in
  for _ = 1 to 3 do
    ignore (Scheduler.tick sched)
  done;
  Alcotest.(check bool) "running before deadline" true (Scheduler.state s = Scheduler.Running);
  Timer.advance clock 10.0;
  (* One quantum is the guarantee: a single tick must retire it. *)
  ignore (Scheduler.tick sched);
  Alcotest.(check bool) "deadline_exceeded after one tick" true
    (Scheduler.state s = Scheduler.Deadline_exceeded);
  match scalar (Scheduler.result s) with
  | None -> Alcotest.fail "partial outcome expected"
  | Some o ->
    Alcotest.(check bool) "did some walks before expiry" true (o.Online.final.walks > 0)

let test_deadline_queued () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let clock = Timer.virtual_ () in
  let sched = Scheduler.create ~quantum:64 ~max_live:1 ~clock () in
  let hog =
    Scheduler.submit sched (walk_cfg ~seed:1 ~max_walks:max_int ()) q reg
  in
  let starved =
    Scheduler.submit sched ~deadline:2.0
      (walk_cfg ~seed:2 ~max_walks:100 ())
      q reg
  in
  ignore (Scheduler.tick sched);
  Alcotest.(check bool) "second session queued" true
    (Scheduler.state starved = Scheduler.Queued);
  Timer.advance clock 3.0;
  ignore (Scheduler.tick sched);
  Alcotest.(check bool) "queued session expired" true
    (Scheduler.state starved = Scheduler.Deadline_exceeded);
  Alcotest.(check (option reject)) "never ran: no outcome"
    None
    (Scheduler.result starved |> Option.map ignore);
  Scheduler.cancel hog;
  Scheduler.drain sched

(* ---- cancellation ------------------------------------------------------- *)

let test_cancel_mid_run () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let sched = Scheduler.create ~quantum:64 ~clock:(Timer.virtual_ ()) () in
  let tok = Token.create () in
  let s =
    Scheduler.submit sched ~token:tok
      (walk_cfg ~seed:11 ~max_walks:max_int ())
      q reg
  in
  for _ = 1 to 4 do
    ignore (Scheduler.tick sched)
  done;
  Alcotest.(check bool) "still running" true (Scheduler.state s = Scheduler.Running);
  let quanta_before = Scheduler.quanta s in
  Token.cancel tok;
  ignore (Scheduler.tick sched);
  Alcotest.(check bool) "cancelled after one tick" true
    (Scheduler.state s = Scheduler.Cancelled);
  (* Stop within one quantum means: the cancel tick granted no further
     steps, so the outcome's walks are exactly quanta * quantum. *)
  (match scalar (Scheduler.result s) with
  | None -> Alcotest.fail "partial outcome expected"
  | Some o ->
    Alcotest.(check int) "no steps after cancel"
      (quanta_before * 64)
      o.Online.final.walks;
    Alcotest.(check bool) "stop reason is Cancelled" true
      (o.Online.stopped_because = Online.Cancelled));
  Alcotest.(check bool) "nothing left to do" false (Scheduler.tick sched)

let test_cancel_while_queued () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let sched = Scheduler.create ~quantum:64 ~max_live:1 ~clock:(Timer.virtual_ ()) () in
  let hog =
    Scheduler.submit sched (walk_cfg ~seed:1 ~max_walks:max_int ()) q reg
  in
  let queued =
    Scheduler.submit sched (walk_cfg ~seed:2 ~max_walks:100 ()) q reg
  in
  ignore (Scheduler.tick sched);
  Scheduler.cancel queued;
  ignore (Scheduler.tick sched);
  Alcotest.(check bool) "queued session cancelled" true
    (Scheduler.state queued = Scheduler.Cancelled);
  Alcotest.(check (option reject)) "never ran: no outcome"
    None
    (Scheduler.result queued |> Option.map ignore);
  Scheduler.cancel hog;
  Scheduler.drain sched;
  Alcotest.(check bool) "hog cancelled too" true
    (Scheduler.state hog = Scheduler.Cancelled)

(* ---- admission FIFO ----------------------------------------------------- *)

let test_admission_fifo () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let started = ref [] in
  let sink =
    Sink.of_fn (function
      | Event.Session_started { session } -> started := session :: !started
      | _ -> ())
  in
  let sched =
    Scheduler.create ~quantum:64 ~max_live:2 ~sink ~clock:(Timer.virtual_ ()) ()
  in
  let sessions =
    List.init 5 (fun i ->
        Scheduler.submit sched (walk_cfg ~seed:i ~max_walks:(100 + (50 * i)) ()) q reg)
  in
  ignore (Scheduler.tick sched);
  Alcotest.(check int) "cap respected" 2 (List.length !started);
  Scheduler.drain sched;
  Alcotest.(check (list int)) "started in submission order"
    (List.map Scheduler.id sessions)
    (List.rev !started);
  List.iter
    (fun s ->
      Alcotest.(check bool) "all done" true (Scheduler.state s = Scheduler.Done))
    sessions

(* ---- admission control: queue bound and tenant quotas ------------------- *)

let test_queue_bound () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let sched =
    Scheduler.create ~quantum:64 ~max_live:1 ~max_queued:1
      ~clock:(Timer.virtual_ ()) ()
  in
  let submit seed = Scheduler.submit sched (walk_cfg ~seed ~max_walks:200 ()) q reg in
  (* Capacity is max_live + max_queued = 2. *)
  let s1 = submit 1 and s2 = submit 2 in
  Alcotest.(check bool) "third submission rejected" true
    (match submit 3 with
    | exception Scheduler.Rejected (Scheduler.Queue_full { queued = 2; max_queued = 1 }) ->
      true
    | exception Scheduler.Rejected _ | _ -> false);
  Alcotest.(check int) "in_flight counts queued + live" 2
    (Scheduler.in_flight sched ());
  Scheduler.drain sched;
  (* Slots freed: submissions are welcome again, and the rejected one
     never consumed an id. *)
  Alcotest.(check int) "in_flight drains to zero" 0 (Scheduler.in_flight sched ());
  let s4 = submit 4 in
  Alcotest.(check int) "no id burned on rejection" (Scheduler.id s2 + 1) (Scheduler.id s4);
  Scheduler.drain sched;
  List.iter
    (fun s -> Alcotest.(check bool) "admitted sessions finish" true
        (Scheduler.state s = Scheduler.Done))
    [ s1; s2; s4 ]

let test_tenant_quota_accounting () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let m = Metrics.create () in
  let sched =
    Scheduler.create ~quantum:64 ~max_live:4 ~tenant_quota:2
      ~sink:(Sink.of_metrics m) ~clock:(Timer.virtual_ ()) ()
  in
  let submit ?tenant seed =
    Scheduler.submit sched ?tenant (walk_cfg ~seed ~max_walks:200 ()) q reg
  in
  let a1 = submit ~tenant:"alice" 1 in
  let _a2 = submit ~tenant:"alice" 2 in
  Alcotest.(check bool) "alice over quota" true
    (match submit ~tenant:"alice" 3 with
    | exception
        Scheduler.Rejected (Scheduler.Tenant_quota { tenant = "alice"; in_flight = 2; quota = 2 })
      -> true
    | exception Scheduler.Rejected _ | _ -> false);
  Alcotest.(check int) "alice's in_flight" 2
    (Scheduler.in_flight sched ~tenant:"alice" ());
  (* Quotas are per tenant; other tenants and anonymous submissions pass. *)
  ignore (submit ~tenant:"bob" 4);
  ignore (submit 5);
  Alcotest.(check int) "bob's in_flight" 1 (Scheduler.in_flight sched ~tenant:"bob" ());
  Alcotest.(check int) "anonymous counted in the total" 4 (Scheduler.in_flight sched ());
  Scheduler.drain sched;
  Alcotest.(check int) "alice drains" 0 (Scheduler.in_flight sched ~tenant:"alice" ());
  Alcotest.(check bool) "alice can submit again" true
    (Scheduler.state (submit ~tenant:"alice" 6) = Scheduler.Queued);
  Scheduler.drain sched;
  Alcotest.(check bool) "first session done" true (Scheduler.state a1 = Scheduler.Done);
  (* Per-tenant counters accumulate in the scheduler sink's registry. *)
  let snap = Snapshot.of_metrics m in
  Alcotest.(check int) "alice submissions counted" 3
    (Snapshot.counter_value snap "tenant.alice.submitted");
  Alcotest.(check int) "alice rejection counted" 1
    (Snapshot.counter_value snap "tenant.alice.rejected");
  Alcotest.(check int) "alice finishes counted" 3
    (Snapshot.counter_value snap "tenant.alice.finished")

let test_prune () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let sched = Scheduler.create ~quantum:64 ~clock:(Timer.virtual_ ()) () in
  let s1 = Scheduler.submit sched (walk_cfg ~seed:1 ~max_walks:200 ()) q reg in
  Scheduler.drain sched;
  let live = Scheduler.submit sched (walk_cfg ~seed:2 ~max_walks:200 ()) q reg in
  Alcotest.(check int) "two sessions listed" 2 (List.length (Scheduler.sessions sched));
  Scheduler.prune sched;
  (* Terminal sessions are forgotten; in-flight ones and existing
     handles survive. *)
  Alcotest.(check (list int)) "only the live session remains"
    [ Scheduler.id live ]
    (List.map (fun i -> i.Scheduler.info_id) (Scheduler.sessions sched));
  Alcotest.(check bool) "pruned handle still readable" true
    (scalar (Scheduler.result s1) <> None);
  Scheduler.drain sched;
  Alcotest.(check bool) "live session unharmed" true
    (Scheduler.state live = Scheduler.Done)

(* ---- per-session scoped metrics ----------------------------------------- *)

let test_scoped_metrics () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let m = Metrics.create () in
  let sched =
    Scheduler.create ~quantum:64 ~sink:(Sink.of_metrics m) ~clock:(Timer.virtual_ ()) ()
  in
  let a = Scheduler.submit sched (walk_cfg ~seed:5 ~max_walks:300 ()) q reg in
  let b = Scheduler.submit sched (walk_cfg ~seed:6 ~max_walks:700 ()) q reg in
  Scheduler.drain sched;
  let snap = Snapshot.of_metrics m in
  let walks_of s =
    Snapshot.counter_value snap
      (Printf.sprintf "session%d.walker.walks" (Scheduler.id s))
  in
  let out s = Option.get (scalar (Scheduler.result s)) in
  Alcotest.(check int) "session a scoped walks" (out a).Online.final.walks (walks_of a);
  Alcotest.(check int) "session b scoped walks" (out b).Online.final.walks (walks_of b);
  Alcotest.(check int) "a stopped on budget" 1
    (Snapshot.counter_value snap
       (Printf.sprintf "session%d.driver.stop.walk_budget_exhausted" (Scheduler.id a)))

(* ---- a session that raises ---------------------------------------------- *)

(* A session whose sink raises on its 200th report — one report per walk,
   so inside its fourth 64-walk quantum: the exception must end that
   session as [Failed], counted, while [tick] returns normally and its
   peer still runs to its budget. *)
let test_failed_session_contained () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let m = Metrics.create () in
  let sched =
    Scheduler.create ~quantum:64 ~sink:(Sink.of_metrics m) ~clock:(Timer.virtual_ ()) ()
  in
  let reports = ref 0 in
  let raising =
    Sink.of_fn (function
      | Event.Report _ ->
        incr reports;
        if !reports = 200 then failwith "boom at report 200"
      | _ -> ())
  in
  let bad_cfg =
    Run_config.make ~seed:5 ~max_walks:5_000 ~max_time:3600.0 ~report_every:0.0
      ~clock:(Timer.virtual_ ()) ~plan_choice:Run_config.First_enumerated ~sink:raising ()
  in
  let bad = Scheduler.submit sched bad_cfg q reg in
  let good = Scheduler.submit sched (walk_cfg ~seed:6 ~max_walks:2_000 ()) q reg in
  Scheduler.drain sched;
  (match Scheduler.state bad with
  | Scheduler.Failed msg ->
    Alcotest.(check string) "the exception's text"
      (Printexc.to_string (Failure "boom at report 200")) msg
  | st -> Alcotest.failf "raising session ended %s" (Scheduler.state_name st));
  Alcotest.(check int) "failed in its fourth quantum" 4 (Scheduler.quanta bad);
  Alcotest.(check bool) "no result" true (Scheduler.result bad = None);
  Alcotest.(check bool) "peer done" true (Scheduler.state good = Scheduler.Done);
  Alcotest.(check int) "peer ran its budget" 2_000
    (Option.get (scalar (Scheduler.result good))).Online.final.walks;
  Alcotest.(check int) "sched.failed" 1
    (Snapshot.counter_value (Snapshot.of_metrics m) "sched.failed");
  Alcotest.(check bool) "nothing left to tick" false (Scheduler.tick sched)

(* ---- domain-sharded drain ------------------------------------------------ *)
(* 16 pinned walk sessions over TPC-H joins: the four physical shapes of
   [serve_statements], four seeds each, as raw query/registry pairs for
   the scheduler-level sharding tests. *)
let tpch_catalog_queries =
  lazy
    (let d = Wj_tpch.Generator.generate ~seed:13 ~sf:0.002 () in
     List.concat_map
       (fun spec ->
         let q = Wj_tpch.Queries.build ~variant:Standard spec d in
         let reg = Wj_tpch.Queries.registry q in
         List.init 4 (fun _ -> (q, reg)))
       [ Wj_tpch.Queries.Q3; Wj_tpch.Queries.Q7; Wj_tpch.Queries.Q10;
         Wj_tpch.Queries.Q3 ])


(* 16 concurrent TPC-H statements, pinned, on 1 vs N domains: per-session
   estimates must be bit-for-bit identical, and the merged scheduler
   registry must account every walk whatever the domain count. *)
let test_sharded_drain_matches_single_domain () =
  let catalog = Lazy.force tpch_catalog_queries in
  let run ~domains =
    let m = Metrics.create () in
    let sched =
      Scheduler.create ~quantum:128 ~max_live:16 ~domains
        ~sink:(Sink.of_metrics m) ~clock:(Timer.virtual_ ()) ()
    in
    let sessions =
      List.mapi
        (fun i (q, reg) ->
          let cfg =
            Run_config.make ~seed:(100 + i) ~max_walks:(500 + (100 * (i mod 4)))
              ~max_time:3600.0
              ~plan_choice:Run_config.First_enumerated ()
          in
          Scheduler.submit sched ~pin:i cfg q reg)
        catalog
    in
    Scheduler.drain sched;
    let outs =
      List.map
        (fun s ->
          match scalar (Scheduler.result s) with
          | Some o -> o
          | None -> Alcotest.fail "sharded session produced no outcome")
        sessions
    in
    (outs, Snapshot.of_metrics m)
  in
  let single, snap1 = run ~domains:1 in
  let sharded, snapn = run ~domains:3 in
  List.iteri
    (fun i ((a : Online.outcome), (b : Online.outcome)) ->
      Alcotest.(check int)
        (Printf.sprintf "session %d: same walks" i)
        a.Online.final.walks b.Online.final.walks;
      Alcotest.(check bool)
        (Printf.sprintf "session %d: bit-for-bit estimate" i)
        true
        (float_eq a.Online.final.estimate b.Online.final.estimate);
      Alcotest.(check bool)
        (Printf.sprintf "session %d: bit-for-bit half-width" i)
        true
        (float_eq a.Online.final.half_width b.Online.final.half_width))
    (List.combine single sharded);
  (* The shard registries merged into the submitter-visible one: per-scope
     walk counters agree with the single-domain registry. *)
  List.iteri
    (fun i (_ : Online.outcome) ->
      let family = Printf.sprintf "session%d.walker.walks" i in
      Alcotest.(check int)
        (family ^ " merged")
        (Snapshot.counter_value snap1 family)
        (Snapshot.counter_value snapn family))
    single

(* PR-8 left a gap: spans recorded by shard workers died with the shard
   trace on [drain].  Each shard now keeps its own span buffer and the
   join barrier merges them into the submitter's trace in shard order, so
   a sharded drain retains exactly the spans a single-domain drain does. *)
let test_sharded_drain_preserves_spans () =
  let catalog = Lazy.force tpch_catalog_queries in
  let run ~domains =
    let clock = Timer.virtual_ () in
    let tr = Wj_obs.Trace.create ~capacity:65536 ~clock () in
    let m = Metrics.create () in
    let sched =
      Scheduler.create ~quantum:128 ~max_live:16 ~domains
        ~sink:(Sink.make ~metrics:m ~trace:tr ()) ~clock ()
    in
    List.iteri
      (fun i (q, reg) ->
        let cfg =
          Run_config.make ~seed:(100 + i) ~max_walks:(500 + (100 * (i mod 4)))
            ~max_time:3600.0 ~plan_choice:Run_config.First_enumerated ()
        in
        ignore
          (Scheduler.submit sched ~label:(Printf.sprintf "s%d" i) ~pin:i cfg q
             reg))
      catalog;
    Scheduler.drain sched;
    tr
  in
  let tr1 = run ~domains:1 and tr3 = run ~domains:3 in
  let counts tr =
    List.map (fun (name, (_, n)) -> (name, n)) (Wj_obs.Trace.totals tr)
  in
  Alcotest.(check bool) "spans recorded at all" true (counts tr1 <> []);
  List.iter
    (fun tr ->
      Alcotest.(check int) "balanced" 0 (Wj_obs.Trace.depth tr);
      Alcotest.(check int) "no drops" 0 (Wj_obs.Trace.dropped tr))
    [ tr1; tr3 ];
  Alcotest.(check (list (pair string int)))
    "same per-span event counts at 1 vs 3 domains" (counts tr1) (counts tr3)

(* Pinning is what makes the multi-domain run reproducible: two sessions
   sharing a pin land on the same shard at any domain count. *)
let test_sharded_pinning_groups () =
  let catalog = Lazy.force tpch_catalog_queries in
  let q, reg = List.hd catalog in
  let events = ref [] in
  let sink =
    Sink.of_fn (function
      | Event.Session_started { session } -> events := session :: !events
      | _ -> ())
  in
  let sched =
    Scheduler.create ~quantum:128 ~domains:2 ~sink ~clock:(Timer.virtual_ ()) ()
  in
  let submit pin seed =
    Scheduler.submit sched ~pin
      (Run_config.make ~seed ~max_walks:200 ~max_time:3600.0
         ~plan_choice:Run_config.First_enumerated ())
      q reg
  in
  let a = submit 0 1 and b = submit 1 2 and c = submit 0 3 and d = submit 1 4 in
  Scheduler.drain sched;
  List.iter
    (fun s ->
      Alcotest.(check bool) "done" true (Scheduler.state s = Scheduler.Done))
    [ a; b; c; d ];
  (* Events replay at the join barrier in shard order: shard 0's sessions
     (ids 0 and 2) before shard 1's (ids 1 and 3). *)
  Alcotest.(check (list int)) "shard-ordered event replay" [ 0; 2; 1; 3 ]
    (List.rev !events)

(* ---- serve: 16 concurrent TPC-H statements = sequential ------------------ *)

let tpch_catalog =
  lazy
    (let d = Wj_tpch.Generator.generate ~seed:13 ~sf:0.002 () in
     Wj_tpch.Generator.catalog d)


let serve_statements =
  [
    "SELECT ONLINE COUNT(*) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey";
    "SELECT ONLINE SUM(l_extendedprice) FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey";
    "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey";
    "SELECT ONLINE SUM(l_quantity) FROM orders, lineitem WHERE o_orderkey = l_orderkey";
  ]

let test_serve_matches_sequential () =
  let catalog = Lazy.force tpch_catalog in
  (* 16 sessions: the four statement shapes, four times each. *)
  let sqls = List.concat [ serve_statements; serve_statements; serve_statements; serve_statements ] in
  let cfg =
    Run_config.make ~seed:21 ~max_walks:2_000 ~max_time:3600.0
      ~clock:(Timer.virtual_ ()) ()
  in
  let served =
    Wj_sql.Engine.serve ~quantum:128 ~max_live:16 cfg catalog sqls
  in
  Alcotest.(check int) "all statements served" 16 (List.length served);
  List.iter2
    (fun sql (s : Wj_sql.Engine.served) ->
      let seq = Wj_sql.Engine.execute_session cfg catalog sql in
      List.iter2
        (fun (_, seq_out) (it : Wj_sql.Engine.served_item) ->
          Alcotest.(check bool) "session done" true
            (it.Wj_sql.Engine.session_state = Scheduler.Done);
          match (seq_out, it.Wj_sql.Engine.outcome) with
          | Wj_sql.Engine.Online_scalar a, Some (Wj_sql.Engine.Online_scalar b) ->
            Alcotest.(check int) "same walks" a.Online.final.walks b.Online.final.walks;
            Alcotest.(check bool) "bit-for-bit estimate" true
              (float_eq a.Online.final.estimate b.Online.final.estimate);
            Alcotest.(check bool) "bit-for-bit half-width" true
              (float_eq a.Online.final.half_width b.Online.final.half_width)
          | _ -> Alcotest.fail "expected scalar online outcomes")
        seq.Wj_sql.Engine.items s.Wj_sql.Engine.served_items)
    sqls served

let test_serve_group_by () =
  (* A GROUP BY statement rides the same scheduler; groups match the
     sequential run exactly. *)
  let catalog = Lazy.force tpch_catalog in
  let sql =
    "SELECT ONLINE COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey \
     GROUP BY c_mktsegment"
  in
  let cfg =
    Run_config.make ~seed:9 ~max_walks:1_500 ~max_time:3600.0
      ~clock:(Timer.virtual_ ()) ()
  in
  let served = Wj_sql.Engine.serve ~quantum:100 cfg catalog [ sql ] in
  let seq = Wj_sql.Engine.execute_session cfg catalog sql in
  match (List.hd served).Wj_sql.Engine.served_items with
  | [ { outcome = Some (Wj_sql.Engine.Online_groups g); _ } ] -> (
    match seq.Wj_sql.Engine.items with
    | [ (_, Wj_sql.Engine.Online_groups g') ] ->
      Alcotest.(check int) "same walks" g'.Online.total_walks g.Online.total_walks;
      List.iter2
        (fun (k, (a : Online.report)) (k', (b : Online.report)) ->
          Alcotest.(check bool) "same key" true (Value.compare k k' = 0);
          Alcotest.(check bool) "bit-for-bit group estimate" true
            (float_eq a.estimate b.estimate))
        g.Online.groups g'.Online.groups
    | _ -> Alcotest.fail "sequential: expected one group outcome")
  | _ -> Alcotest.fail "served: expected one group outcome"

(* The query alone picks the session kind: a GROUP BY query submitted
   straight to the scheduler, with nothing else saying it is grouped,
   comes back as [Groups], bit for bit the blocking group-by driver. *)
let test_submit_group_by_kind () =
  let catalog = Lazy.force tpch_catalog in
  let sql =
    "SELECT ONLINE COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey \
     GROUP BY c_mktsegment"
  in
  let q =
    match (Wj_sql.Binder.bind catalog (Wj_sql.Parser.parse sql)).Wj_sql.Binder.queries with
    | [ (_, q) ] -> q
    | _ -> Alcotest.fail "expected one bound aggregate"
  in
  let reg = Registry.build_for_query q in
  let cfg =
    Run_config.make ~seed:9 ~max_walks:1_500 ~max_time:3600.0
      ~clock:(Timer.virtual_ ()) ()
  in
  let sched = Scheduler.create ~quantum:100 () in
  let s = Scheduler.submit sched cfg q reg in
  Scheduler.drain sched;
  let direct = Online.run_group_by_session cfg q reg in
  match Scheduler.result s with
  | Some (Wj_core.Session.Groups g) ->
    Alcotest.(check int) "same walks" direct.Online.total_walks g.Online.total_walks;
    Alcotest.(check int) "same group count" (List.length direct.Online.groups)
      (List.length g.Online.groups);
    List.iter2
      (fun (k, (a : Online.report)) (k', (b : Online.report)) ->
        Alcotest.(check bool) "same key" true (Value.compare k k' = 0);
        Alcotest.(check int) "same group walks" b.walks a.walks;
        Alcotest.(check bool) "bit-for-bit group estimate" true
          (float_eq a.estimate b.estimate);
        Alcotest.(check bool) "bit-for-bit group half-width" true
          (float_eq a.half_width b.half_width))
      g.Online.groups direct.Online.groups
  | Some (Wj_core.Session.Scalar _) -> Alcotest.fail "GROUP BY query ran as a scalar session"
  | None -> Alcotest.fail "session never ran"

(* ---- one index store per catalog ----------------------------------------- *)

let sf01_catalog =
  lazy (Wj_tpch.Generator.catalog (Wj_tpch.Generator.generate ~seed:7 ~sf:0.01 ()))

let only_scalar = function
  | [ Wj_sql.Engine.Online_scalar o ] -> o
  | _ -> Alcotest.fail "expected one scalar online item"

let same_outcome name (a : Online.outcome) (b : Online.outcome) =
  Alcotest.(check string) (name ^ ": plan") a.plan_description b.plan_description;
  Alcotest.(check int) (name ^ ": walks") a.final.walks b.final.walks;
  Alcotest.(check bool) (name ^ ": bit-for-bit estimate") true
    (float_eq a.final.estimate b.final.estimate);
  Alcotest.(check bool) (name ^ ": bit-for-bit half-width") true
    (float_eq a.final.half_width b.final.half_width)

(* A registry depends on its query alone.  A indexes l_suppkey for its
   predicate, B for its join: served after A in one batch, B must still
   give what a lone run gives. *)
let test_registry_depends_on_query () =
  let catalog = Lazy.force sf01_catalog in
  let a =
    "SELECT ONLINE SUM(l_quantity) FROM orders, lineitem WHERE o_orderkey = \
     l_orderkey AND l_suppkey < 50"
  and b =
    "SELECT ONLINE SUM(l_quantity) FROM supplier, lineitem WHERE s_suppkey = \
     l_suppkey AND s_nationkey = 3"
  in
  let cfg = Run_config.make ~seed:3 ~max_walks:20_000 ~max_time:3600.0 () in
  let alone =
    only_scalar (List.map snd (Wj_sql.Engine.execute_session cfg catalog b).items)
  in
  let after_a =
    match Wj_sql.Engine.serve cfg catalog [ a; b ] with
    | [ _; s ] ->
      only_scalar (List.filter_map (fun (i : Wj_sql.Engine.served_item) -> i.outcome) s.served_items)
    | _ -> Alcotest.fail "expected two served statements"
  in
  same_outcome "B after A = B alone" alone after_a

(* Registries built over one store share each (table, columns) index
   physically; without a store each build makes its own. *)
let test_store_shares_indexes () =
  let catalog = Lazy.force tpch_catalog in
  let bind sql =
    match (Wj_sql.Binder.bind catalog (Wj_sql.Parser.parse sql)).queries with
    | [ (_, q) ] -> q
    | _ -> Alcotest.fail "expected one bound aggregate"
  in
  let q3 =
    bind
      (Printf.sprintf
         "SELECT ONLINE SUM(l_extendedprice * (1 - l_discount)) FROM customer, \
          orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey \
          AND c_mktsegment_id = %d AND o_orderdate < DATE '1995-03-15' AND \
          l_shipdate > DATE '1995-03-15'"
         (Wj_tpch.Generator.segment_id "BUILDING"))
  and count2 =
    bind
      "SELECT ONLINE COUNT(*) FROM customer, orders WHERE c_custkey = o_custkey \
       AND o_orderdate < DATE '1994-01-01'"
  in
  let index q reg table column =
    let pos = ref (-1) in
    Array.iteri (fun i t -> if Table.name t = table then pos := i) q.Query.tables;
    let column = Table.column_index q.Query.tables.(!pos) column in
    Option.get (Registry.find reg ~pos:!pos ~column)
  in
  let cols = [ ("customer", "c_custkey"); ("orders", "o_custkey"); ("orders", "o_orderdate") ] in
  let store = Registry.create_store () in
  let r3 = Registry.build_for_query ~store q3 in
  let r2 = Registry.build_for_query ~store count2 in
  let fresh = Registry.build_for_query count2 in
  List.iter
    (fun (table, column) ->
      Alcotest.(check bool) (column ^ " shared through the store") true
        (index q3 r3 table column == index count2 r2 table column);
      Alcotest.(check bool) (column ^ " fresh without a store") false
        (index q3 r3 table column == index count2 fresh table column))
    cols

(* Cyclic f ⋈ g ⋈ h: the optimizer's trie variants build tries lazily, at
   session start, in the batch's one store. *)
let triangle_catalog =
  lazy
    (let prng = Wj_util.Prng.create 17 in
     let mk name c1 c2 =
       int_table name [ c1; c2 ]
         (List.init 3_000 (fun _ -> [ Wj_util.Prng.int prng 30; Wj_util.Prng.int prng 30 ]))
     in
     let catalog = Wj_storage.Catalog.create () in
     List.iter (Wj_storage.Catalog.add_table catalog) [ mk "f" "a" "b"; mk "g" "b" "c"; mk "h" "c" "a" ];
     catalog)

(* Two statements on two domains reach one store at once: every estimate
   and walk count must equal the single-domain batch. *)
(* One physical index per (table, columns).  Q7's two nation aliases join
   on n_nationkey and carry a predicate on it: every slot over that column
   holds the one index the store hands out for it, and so does every
   other slot.  The entry count is the sum of the slots' table sizes. *)
let test_one_index_per_column () =
  let d = Wj_tpch.Generator.generate ~seed:7 ~sf:0.005 () in
  let q = Wj_tpch.Queries.build ~variant:Standard Wj_tpch.Queries.Q7 d in
  let store = Registry.create_store () in
  let reg = Registry.build_for_query ~store q in
  Alcotest.(check int) "total entries" 106_722 (Registry.total_entries reg);
  let other = Registry.build_for_query ~store q in
  Registry.iter reg (fun ~pos ~column idx ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d.%d is the store's index" pos column)
        true
        (idx == Registry.ensure_trie other q.Query.tables.(pos) ~pos ~columns:[ column ]));
  let nation = ref [] in
  Array.iteri
    (fun pos t ->
      if Table.name t = "nation" then
        nation :=
          Option.get (Registry.find reg ~pos ~column:(Table.column_index t "n_nationkey"))
          :: !nation)
    q.Query.tables;
  match !nation with
  | [ n2; n1 ] -> Alcotest.(check bool) "both nation aliases share one index" true (n1 == n2)
  | _ -> Alcotest.fail "Q7 has two nation aliases"

let test_store_across_domains () =
  let catalog = Lazy.force triangle_catalog in
  let where = " FROM f, g, h WHERE f.b = g.b AND g.c = h.c AND h.a = f.a" in
  let sqls = [ "SELECT ONLINE COUNT(*)" ^ where; "SELECT ONLINE SUM(f.a)" ^ where ] in
  let cfg =
    Run_config.make ~seed:4 ~max_walks:20_000 ~max_time:3600.0 ~clock:(Timer.virtual_ ()) ()
  in
  let outcomes ~domains =
    List.concat_map
      (fun (s : Wj_sql.Engine.served) ->
        List.map
          (fun (i : Wj_sql.Engine.served_item) -> only_scalar (Option.to_list i.outcome))
          s.served_items)
      (Wj_sql.Engine.serve ~quantum:256 ~domains cfg catalog sqls)
  in
  let one = outcomes ~domains:1 and two = outcomes ~domains:2 in
  let mentions s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (o : Online.outcome) ->
      Alcotest.(check bool) "a trie-intersect plan" true (mentions o.plan_description "intersect"))
    one;
  List.iter2 (same_outcome "2 domains = 1 domain") one two

let () =
  Alcotest.run "wj_service"
    [
      ( "determinism",
        [ QCheck_alcotest.to_alcotest interleaving_determinism ] );
      ( "deadlines",
        [
          Alcotest.test_case "running session expires within one quantum" `Quick
            test_deadline_running;
          Alcotest.test_case "queued session expires without running" `Quick
            test_deadline_queued;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "mid-run cancel stops within one quantum" `Quick
            test_cancel_mid_run;
          Alcotest.test_case "queued cancel never runs" `Quick test_cancel_while_queued;
        ] );
      ( "admission",
        [
          Alcotest.test_case "FIFO order under max_live cap" `Quick test_admission_fifo;
          Alcotest.test_case "queue bound rejects at capacity" `Quick test_queue_bound;
          Alcotest.test_case "tenant quotas and accounting" `Quick
            test_tenant_quota_accounting;
          Alcotest.test_case "prune forgets terminal sessions" `Quick test_prune;
        ] );
      ( "failure",
        [
          Alcotest.test_case "a raising session fails alone" `Quick
            test_failed_session_contained;
        ] );
      ( "metrics",
        [ Alcotest.test_case "per-session scoped families" `Quick test_scoped_metrics ]
      );
      ( "sharding",
        [
          Alcotest.test_case "16 pinned TPC-H sessions: 1 domain = 3 domains"
            `Quick test_sharded_drain_matches_single_domain;
          Alcotest.test_case "sharded drain preserves spans" `Quick
            test_sharded_drain_preserves_spans;
          Alcotest.test_case "pinning groups sessions per shard" `Quick
            test_sharded_pinning_groups;
        ] );
      ( "serve",
        [
          Alcotest.test_case "16 concurrent TPC-H sessions = sequential" `Quick
            test_serve_matches_sequential;
          Alcotest.test_case "group-by rides the scheduler" `Quick test_serve_group_by;
          Alcotest.test_case "submit: the query picks the session kind" `Quick
            test_submit_group_by_kind;
        ] );
      ( "index store",
        [
          Alcotest.test_case "serve [A; B] gives B what B alone gives" `Quick
            test_registry_depends_on_query;
          Alcotest.test_case "one store shares exact indexes" `Quick
            test_store_shares_indexes;
          Alcotest.test_case "two domains build tries in one store" `Quick
            test_store_across_domains;
          Alcotest.test_case "one index per (table, columns)" `Quick test_one_index_per_column;
        ] );
    ]
