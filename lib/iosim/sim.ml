module Timer = Wj_util.Timer
module Buffer_pool = Wj_storage.Buffer_pool

let model = Cost_model.default

type t = {
  pool : Buffer_pool.t;
  clock : Timer.t;
  mutable charged : float;
  mutable seen_misses : int; (* the pool's miss count at the last charge *)
}

let check_virtual fn clock =
  if not (Timer.is_virtual clock) then invalid_arg (fn ^ ": clock must be virtual")

let create ~pool ~clock () =
  check_virtual "Sim.create" clock;
  { pool; clock; charged = 0.0; seen_misses = Buffer_pool.misses pool }

let charge_seconds t s =
  t.charged <- t.charged +. s;
  Timer.advance t.clock s

let charged_seconds t = t.charged

(* Every step of the walk is a RAM access; each page fault since the last
   charge turns one of them into a random I/O. *)
let charge_walk t ~cost =
  let misses = Buffer_pool.misses t.pool in
  let faults = misses - t.seen_misses in
  t.seen_misses <- misses;
  charge_seconds t
    ((float_of_int cost *. model.ram_access)
    +. (float_of_int faults *. (model.random_io -. model.ram_access)))

(* Random-order ripple scans its shuffled table in storage order: the
   first tuple of each storage page pays one sequential I/O, later tuples
   of the page are RAM accesses.  An index-sampled tuple jumps anywhere
   and pays a random I/O. *)
let ripple_tracer ~clock () =
  check_virtual "Sim.ripple_tracer" clock;
  fun ~pos:_ ~slot ~sequential ->
    Timer.advance clock
      (if not sequential then model.random_io
       else if slot mod model.rows_per_page = 0 then model.seq_io
       else model.ram_access)

let export_gauges t m =
  let g name v = Wj_obs.Gauge.set (Wj_obs.Metrics.gauge m name) v in
  g "pool.hits" (float_of_int (Buffer_pool.hits t.pool));
  g "pool.misses" (float_of_int (Buffer_pool.misses t.pool));
  g "pool.accesses" (float_of_int (Buffer_pool.accesses t.pool));
  g "pool.resident" (float_of_int (Buffer_pool.resident t.pool));
  g "pool.capacity" (float_of_int (Buffer_pool.capacity t.pool));
  g "sim.charged_seconds" t.charged

let sink ?metrics t =
  let on_event ev =
    match (ev : Wj_obs.Event.t) with
    | Walk_succeeded { cost } | Walk_failed { cost; _ } -> charge_walk t ~cost
    | Report _ | Stopped _ -> (
      match metrics with Some m -> export_gauges t m | None -> ())
    | Walk_started | Plan_chosen _ | Nontree_reject _ | Session_admitted _
    | Session_started _ | Session_report _ | Session_finished _ | Policy_pick _ ->
      ()
  in
  Wj_obs.Sink.make ~on_event ?metrics ()
