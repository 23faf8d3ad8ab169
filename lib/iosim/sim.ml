module Timer = Wj_util.Timer
module Buffer_pool = Wj_storage.Buffer_pool

type t = {
  model : Cost_model.t;
  pool : Buffer_pool.t;
  clock : Timer.t;
  mutable charged : float;
}

let create ?(model = Cost_model.default) ~pool_pages ~clock () =
  if not (Timer.is_virtual clock) then
    invalid_arg "Sim.create: clock must be virtual";
  { model; pool = Buffer_pool.create ~capacity:pool_pages (); clock; charged = 0.0 }

let model t = t.model
let pool t = t.pool

let charge_seconds t s =
  t.charged <- t.charged +. s;
  Timer.advance t.clock s

let charged_seconds t = t.charged

let touch_row t table row =
  let page = row / t.model.Cost_model.rows_per_page in
  if Buffer_pool.touch t.pool ~table ~page then
    charge_seconds t t.model.Cost_model.ram_access
  else charge_seconds t t.model.Cost_model.random_io

(* Random-order ripple scans its shuffled table in storage order — the
   first touch of each storage page pays one sequential I/O, later rows of
   the page are RAM accesses.  Index-assisted retrieval jumps around and
   pays random I/O per miss. *)
let ripple_tracer t ~pos ~slot ~sequential =
  let page = slot / t.model.Cost_model.rows_per_page in
  if Buffer_pool.touch t.pool ~table:pos ~page then
    charge_seconds t t.model.Cost_model.ram_access
  else
    charge_seconds t
      (if sequential then t.model.Cost_model.seq_io
       else t.model.Cost_model.random_io)

let charge_scan t ~rows = charge_seconds t (Cost_model.scan_seconds t.model ~rows)

let warm t ~table ~rows =
  (* Warming is meant to be invisible: drop the counters after the pre-load. *)
  let pages = Cost_model.pages_of_rows t.model rows in
  for page = 0 to pages - 1 do
    ignore (Buffer_pool.touch t.pool ~table ~page)
  done;
  Buffer_pool.reset_stats t.pool

let export_gauges t m =
  let g name v = Wj_obs.Gauge.set (Wj_obs.Metrics.gauge m name) v in
  g "pool.hits" (float_of_int (Buffer_pool.hits t.pool));
  g "pool.misses" (float_of_int (Buffer_pool.misses t.pool));
  g "pool.accesses" (float_of_int (Buffer_pool.accesses t.pool));
  g "pool.resident" (float_of_int (Buffer_pool.resident t.pool));
  g "pool.capacity" (float_of_int (Buffer_pool.capacity t.pool));
  g "sim.charged_seconds" t.charged

let sink ?metrics ?trace t =
  (* With a trace attached, every simulated I/O charge is also recorded
     as a retrospective ("X") span whose duration is the virtual seconds
     charged — so a Chrome timeline shows where modelled I/O time went. *)
  let charged_span name f =
    match trace with
    | None -> f ()
    | Some tr ->
      let before = t.charged in
      f ();
      Wj_obs.Trace.complete tr ~cat:"iosim" ~dur:(t.charged -. before) name
  in
  let on_event ev =
    match (ev : Wj_obs.Event.t) with
    | Row_access { pos; row } ->
      charged_span "io.row_access" (fun () -> touch_row t pos row)
    | Index_probe { cost; _ } ->
      charged_span "io.index_probe" (fun () ->
          charge_seconds t (float_of_int cost *. t.model.Cost_model.index_level_cost))
    | Report _ | Stopped _ -> (
      match metrics with Some m -> export_gauges t m | None -> ())
    | Walk_started | Walk_succeeded _ | Walk_failed _
    | Plan_chosen _ | Nontree_reject _ | Session_admitted _ | Session_started _
    | Session_report _ | Session_finished _ | Policy_pick _ ->
      ()
  in
  Wj_obs.Sink.make ~on_event ?metrics ?trace ()
