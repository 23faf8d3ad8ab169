module Online = Wj_core.Online

type result = {
  exact : Exact.result;
  exact_time : float;
  online : Online.outcome;
}

let run ?(seed = 13) ?(confidence = 0.95) ?target ?report_every ?on_report q registry =
  let finished = Atomic.make false in
  let exact_domain =
    Domain.spawn (fun () ->
        let r, t = Wj_util.Timer.time_it (fun () -> Exact.aggregate q registry) in
        Atomic.set finished true;
        (r, t))
  in
  let online =
    let cfg =
      Wj_core.Run_config.make ~seed ~confidence ?target ?report_every
        ~max_time:infinity
        ~should_stop:(fun () -> Atomic.get finished)
        ()
    in
    Online.run_session ?on_report cfg q registry
  in
  let exact, exact_time = Domain.join exact_domain in
  { exact; exact_time; online }
