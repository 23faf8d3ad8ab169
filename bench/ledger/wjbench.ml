(* wjbench: the repository's benchmark.  One workload per process:

     wjbench --workload q7_chain --seed 7 --seconds 30 --trace 0
     wjbench --traced                -- every workload, per-layer ledger
     wjbench --smoke                 -- tiny sizes, all checks, twice

   With --trace 0 it prints the end-to-end metrics, measured with no
   tracing; with --trace 1 it prints the per-layer metrics.  The last line
   of standard output is one JSON object: correct, attempted, failed and
   metrics.  The line before it records the run's provenance.  Any failed
   correctness check makes the exit code non-zero.  bench/ledger/README.md
   describes the workloads and how to read a ledger. *)

module M = Measure
module Json = Wj_daemon.Json

let workloads = [ "q7_chain"; "triangle"; "q3_paged"; "wjd_mixed" ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  wjcli : string;
  bench_json : string;
}

let parse_args () =
  let workload = ref None and seed = ref 7 and seconds = ref 30.0 and traced = ref false in
  let smoke = ref false and wjcli = ref "_build/default/bin/wjcli.exe" in
  let bench_json = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "S sampling seed (default 7); the data is fixed");
      ("--seconds", Arg.Set_float seconds, "T measuring window of a run, set-ups included (default 30)");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--traced", Arg.Set traced, " same as --trace 1");
      ("--smoke", Arg.Set smoke, " tiny sizes: every check, deterministic counts compared");
      ("--wjcli", Arg.Set_string wjcli, "PATH the wjcli executable that serves wjd");
      ("--bench-json", Arg.Set_string bench_json, "PATH BENCHMARK.json, checked by --smoke");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wjbench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]";
  (match !workload with
  | Some w when not (List.mem w workloads) -> raise (Arg.Bad ("unknown workload " ^ w))
  | _ -> ());
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    traced = !traced;
    smoke = !smoke;
    wjcli = !wjcli;
    bench_json = !bench_json;
  }

(* Scratch space for segment files and access logs, inside the working
   directory and removed on exit. *)
let workdir () =
  let dir = Printf.sprintf "_wjdata_bench.%d" (Unix.getpid ()) in
  Inproc.remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> Inproc.remove_tree dir);
  dir

let inproc_spec ~smoke w = List.find_opt (fun (s : Inproc.spec) -> s.name = w) (Inproc.specs ~smoke)

let measure ~smoke ~wjcli ~workdir ~seed ~seconds ~traced w tally =
  let reps = Inproc.reps ~smoke in
  match inproc_spec ~smoke w with
  | Some spec ->
    let ms =
      if traced then Inproc.run_traced spec ~seed ~workdir tally
      else Inproc.run_e2e spec ~reps ~seed ~seconds ~workdir tally
    in
    (spec.sf, ms)
  | None ->
    let sizes = Wjd_mixed.sizes ~smoke in
    let ms =
      if traced then Wjd_mixed.run_traced ~wjcli sizes ~seed ~seconds ~workdir tally
      else Wjd_mixed.run_e2e ~wjcli sizes ~seed ~seconds ~setups:reps.setups tally
    in
    (sizes.sf, ms)

let run_one o w =
  let tally = M.tally () in
  let sf, ms =
    measure ~smoke:false ~wjcli:o.wjcli ~workdir:(workdir ()) ~seed:o.seed ~seconds:o.seconds
      ~traced:o.traced w tally
  in
  M.print_metrics
    (Printf.sprintf "%s (%s, seed %d): %d checks, %d failed" w
       (if o.traced then "per-layer" else "end-to-end")
       o.seed tally.attempted tally.failed)
    ms;
  print_endline (M.meta_line ~workload:w ~seed:o.seed ~sf ~traced:o.traced);
  print_endline (M.result_line tally ms);
  if tally.failed > 0 then exit 1

(* Without --workload: each workload in a fresh process of its own. *)
let run_all o =
  let args =
    [ "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds; "--trace";
      (if o.traced then "1" else "0"); "--wjcli"; o.wjcli ]
  in
  let failed =
    List.filter
      (fun w ->
        let argv = Array.of_list (Sys.executable_name :: "--workload" :: w :: args) in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  if failed <> [] then begin
    Printf.eprintf "wjbench: failed: %s\n" (String.concat ", " failed);
    exit 1
  end

(* ---- smoke --------------------------------------------------------------- *)

(* Counts that must repeat exactly between two runs of the same seed. *)
let deterministic =
  [
    "online.walks_to_ci"; "optimizer.trial_walks"; "walker.cost_per_walk";
    "walker.minor_words_per_walk"; "index.probes_per_walk"; "pool.faults_per_walk";
    "pool.working_set_pages";
  ]

let declared bench_json key =
  let j = Json.parse (In_channel.with_open_text bench_json In_channel.input_all) in
  match Json.member key j with
  | Some (Json.List items) ->
    List.filter_map
      (fun it ->
        match (Option.bind (Json.member "name" it) Json.to_str, Json.member "unit" it) with
        | Some n, Some u -> Some (n, Option.value (Json.to_str u) ~default:"")
        | Some n, None -> Some (n, "")
        | None, _ -> None)
      items
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

(* The in-process layers again, for their deterministic counts. *)
let layers_again ~workdir ~seed w tally =
  let spec =
    match inproc_spec ~smoke:true w with
    | Some spec -> spec
    | None -> Wjd_mixed.ledger_spec (Wjd_mixed.sizes ~smoke:true)
  in
  let inst, _, ms = Inproc.layers spec ~seed ~workdir tally in
  Inproc.remove_tree inst.dir;
  ms

(* Tiny sizes, every workload: every correctness check, the metric names
   and units against BENCHMARK.json, and the deterministic counts of two
   traced runs compared exactly. *)
let smoke o =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names ms = List.sort compare (List.map (fun (m : M.metric) -> (m.name, m.unit_)) ms) in
  let e2e = List.sort compare (declared o.bench_json "end_to_end") in
  let per_layer = List.sort compare (declared o.bench_json "per_layer") in
  if List.map fst (declared o.bench_json "workloads") <> workloads then
    fail "BENCHMARK.json workloads differ from %s" (String.concat ", " workloads);
  let workdir = workdir () in
  let tally = M.tally () in
  List.iter
    (fun w ->
      let t0 = M.now () in
      let run traced = snd (measure ~smoke:true ~wjcli:o.wjcli ~workdir ~seed:o.seed ~seconds:0.0 ~traced w tally) in
      let plain = run false in
      let a = run true and b = layers_again ~workdir ~seed:o.seed w tally in
      if names plain <> e2e then fail "%s: end-to-end metrics differ from BENCHMARK.json" w;
      if names a <> per_layer then fail "%s: per-layer metrics differ from BENCHMARK.json" w;
      List.iter
        (fun (m : M.metric) ->
          if not (Float.is_finite m.value) then fail "%s: %s = %g" w m.name m.value;
          if List.mem m.name deterministic then
            match List.find_opt (fun (m' : M.metric) -> m'.name = m.name) b with
            | Some m' when Int64.equal (Int64.bits_of_float m.value) (Int64.bits_of_float m'.value) -> ()
            | Some m' -> fail "%s: %s not deterministic: %.17g vs %.17g" w m.name m.value m'.value
            | None -> fail "%s: %s missing from the second run" w m.name)
        (plain @ a);
      Printf.printf "smoke %-10s %.2fs\n%!" w (M.now () -. t0))
    workloads;
  if tally.failed > 0 then fail "%d of %d correctness checks failed" tally.failed tally.attempted;
  match !problems with
  | [] -> Printf.printf "smoke: %d checks passed\n" tally.attempted
  | ps ->
    List.iter (Printf.eprintf "wjbench smoke: %s\n") (List.rev ps);
    exit 1

let () =
  match parse_args () with
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | o -> (
    (* A daemon that closes a connection early must surface as a failed
       request, not kill the benchmark. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if o.smoke then smoke o
    else match o.workload with Some w -> run_one o w | None -> run_all o)
