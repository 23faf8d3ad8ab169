module Moments = Wj_stats.Moments

type plan = {
  label : string;
  moments : Moments.t;
  mutable attempts : int;
  mutable successes : int;
}

type t = {
  ci : Timeseries.t;
  plans : (string, plan) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

type fit = { c : float; exponent : float; points : int }

type attribution = {
  plan : string;
  attempts : int;
  successes : int;
  variance : float;
  share : float;
}

let create () = { ci = Timeseries.create (); plans = Hashtbl.create 8; order = [] }

let find_plan t label : plan =
  match Hashtbl.find_opt t.plans label with
  | Some p -> p
  | None ->
    let p = { label; moments = Moments.create ~dim:1; attempts = 0; successes = 0 } in
    Hashtbl.add t.plans label p;
    t.order <- label :: t.order;
    p

let register_plan t label = ignore (find_plan t label)

let obs1 = [| 0.0 |]

let observe t ~plan ~success value =
  let p = find_plan t plan in
  p.attempts <- p.attempts + 1;
  if success then begin
    p.successes <- p.successes + 1;
    obs1.(0) <- value;
    Moments.add p.moments obs1
  end
  else Moments.add_zeros p.moments 1

let credit t ~plan ~attempts ~successes =
  if attempts < 0 || successes < 0 then
    invalid_arg "Convergence.credit: negative counts";
  if successes > attempts then
    invalid_arg "Convergence.credit: successes > attempts";
  let p = find_plan t plan in
  p.attempts <- p.attempts + attempts;
  p.successes <- p.successes + successes

let note_ci t ~walks ~half_width =
  Timeseries.push t.ci ~x:(float_of_int walks) ~y:half_width

let ci_series t = Timeseries.to_array t.ci
let series t = t.ci
let total_attempts t =
  Hashtbl.fold (fun _ (p : plan) acc -> acc + p.attempts) t.plans 0

(* Least-squares fit of [half_width = c * walks^exponent] in log-log
   space over the retained CI samples.  Only finite, strictly positive
   points participate (a zero half-width means "no estimate yet" or an
   exact result; log of either is meaningless).  Under the paper's §4.1
   CLT the exponent should approach -1/2. *)
let fit t =
  let pts = Timeseries.to_array t.ci in
  let lx = ref 0.0 and ly = ref 0.0 and lxx = ref 0.0 and lxy = ref 0.0 in
  let n = ref 0 in
  Array.iter
    (fun (x, y) ->
      if x > 0.0 && y > 0.0 && Float.is_finite y then begin
        let u = log x and v = log y in
        lx := !lx +. u;
        ly := !ly +. v;
        lxx := !lxx +. (u *. u);
        lxy := !lxy +. (u *. v);
        incr n
      end)
    pts;
  let n' = float_of_int !n in
  let det = (n' *. !lxx) -. (!lx *. !lx) in
  if !n < 2 || Float.abs det < 1e-12 then None
  else
    let exponent = ((n' *. !lxy) -. (!lx *. !ly)) /. det in
    let intercept = (!ly -. (exponent *. !lx)) /. n' in
    Some { c = exp intercept; exponent; points = !n }

let fit_json = function
  | None -> Wj_util.Json.Null
  | Some f ->
    Wj_util.Json.(
      Obj [ ("c", Float f.c); ("exponent", Float f.exponent); ("points", Int f.points) ])

let convergence_ratio t =
  match fit t with Some f -> Some (f.exponent /. -0.5) | None -> None

let attribution t =
  let labels = List.rev t.order in
  let plans = List.map (fun l -> Hashtbl.find t.plans l) labels in
  (* Each plan's weight in the session variance: its per-walk observation
     variance times the walks it was responsible for. *)
  let weight p = Moments.sample_variance p.moments 0 *. float_of_int p.attempts in
  let total = List.fold_left (fun acc p -> acc +. weight p) 0.0 plans in
  List.map
    (fun p ->
      {
        plan = p.label;
        attempts = p.attempts;
        successes = p.successes;
        variance = Moments.sample_variance p.moments 0;
        share = (if total > 0.0 then weight p /. total else 0.0);
      })
    plans

(* A plan is stalled when it has been tried a meaningful number of times
   and essentially never completes a walk: its observations carry almost
   no information, yet each attempt costs index probes.  The optimizer's
   trial round-robin and the report renderers surface these. *)
let stalled t =
  List.filter_map
    (fun a ->
      let rate =
        if a.attempts = 0 then 0.0
        else float_of_int a.successes /. float_of_int a.attempts
      in
      if a.attempts >= 64 && rate <= 0.01 then Some a.plan
      else None)
    (attribution t)
