type plan_choice =
  | Optimize of Optimizer.config
  | Fixed of Walk_plan.t
  | First_enumerated

type t = {
  seed : int;
  confidence : float;
  target : Wj_stats.Target.t option;
  max_time : float;
  max_walks : int option;
  report_every : float option;
  batch : int;
  clock : Wj_util.Timer.t option;
  should_stop : (unit -> bool) option;
  plan_choice : plan_choice;
  sink : Wj_obs.Sink.t;
  recorder : Wj_obs.Recorder.t option;
  backend : Wj_storage.Backend.t;
}

let default =
  {
    seed = 42;
    confidence = 0.95;
    target = None;
    max_time = 10.0;
    max_walks = None;
    report_every = None;
    batch = 1;
    clock = None;
    should_stop = None;
    plan_choice = Optimize Optimizer.default_config;
    sink = Wj_obs.Sink.noop;
    recorder = None;
    backend = Wj_storage.Backend.In_memory;
  }

let make ?(seed = 42) ?(confidence = 0.95) ?target ?(max_time = 10.0) ?max_walks
    ?report_every ?(batch = 1) ?clock ?should_stop
    ?(plan_choice = Optimize Optimizer.default_config)
    ?(sink = Wj_obs.Sink.noop) ?recorder
    ?(backend = Wj_storage.Backend.In_memory) () =
  {
    seed;
    confidence;
    target;
    max_time;
    max_walks;
    report_every;
    batch;
    clock;
    should_stop;
    plan_choice;
    sink;
    recorder;
    backend;
  }

let with_seed t seed = { t with seed }
let with_sink t sink = { t with sink }
let with_recorder t recorder = { t with recorder = Some recorder }
let with_backend t backend = { t with backend }

(* The sink a driver should actually observe through: the configured sink
   teed (left, so its metrics registry and trace win) with the recorder's
   reports-only sink, when a recorder is attached. *)
let resolved_sink t =
  match t.recorder with
  | None -> t.sink
  | Some r -> Wj_obs.Sink.tee t.sink (Wj_obs.Recorder.sink r)

let clock_or_wall t =
  match t.clock with Some c -> c | None -> Wj_util.Timer.wall ()
