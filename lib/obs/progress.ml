type t = {
  elapsed : float;
  walks : int;
  successes : int;
  tuples : int;
  estimate : float;
  half_width : float;
}

let make ?(tuples = 0) ~elapsed ~walks ~successes ~estimate ~half_width () =
  { elapsed; walks; successes; tuples; estimate; half_width }

let success_rate t =
  if t.walks = 0 then 0.0 else float_of_int t.successes /. float_of_int t.walks
