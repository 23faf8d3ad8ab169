type width =
  | Relative of float
  | Absolute of float

type t = { confidence : float; width : width }

let check_confidence c =
  if not (c > 0.0 && c < 1.0) then
    invalid_arg "Target: confidence must lie in (0,1)"

let relative ?(confidence = 0.95) frac =
  check_confidence confidence;
  if frac <= 0.0 then invalid_arg "Target.relative: fraction must be positive";
  { confidence; width = Relative frac }

let reached t ~estimate ~half_width =
  Float.is_finite estimate
  && Float.is_finite half_width
  &&
  match t.width with
  | Relative frac -> half_width <= frac *. Float.abs estimate && estimate <> 0.0
  | Absolute bound -> half_width <= bound
