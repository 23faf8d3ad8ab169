type t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}

let success_rate t =
  if t.walks = 0 then 0.0 else float_of_int t.successes /. float_of_int t.walks
