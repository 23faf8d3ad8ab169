let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap y then 29 else 28
  | _ -> invalid_arg "Dates: month out of range"

let days_in_year y = if is_leap y then 366 else 365

let min_day = 0

let max_day =
  (* 1992..1998 inclusive, minus one to index the last day. *)
  let rec total y acc = if y > 1998 then acc else total (y + 1) (acc + days_in_year y) in
  total 1992 0 - 1

let of_ymd y m d =
  if y < 1992 || y > 1998 then invalid_arg "Dates.of_ymd: year out of range";
  if m < 1 || m > 12 then invalid_arg "Dates.of_ymd: month out of range";
  if d < 1 || d > days_in_month y m then invalid_arg "Dates.of_ymd: day out of range";
  let years = ref 0 in
  for yy = 1992 to y - 1 do
    years := !years + days_in_year yy
  done;
  let months = ref 0 in
  for mm = 1 to m - 1 do
    months := !months + days_in_month y mm
  done;
  !years + !months + d - 1

let to_ymd day =
  if day < min_day || day > max_day then invalid_arg "Dates.to_ymd: out of range";
  let y = ref 1992 and rest = ref day in
  while !rest >= days_in_year !y do
    rest := !rest - days_in_year !y;
    incr y
  done;
  let m = ref 1 in
  while !rest >= days_in_month !y !m do
    rest := !rest - days_in_month !y !m;
    incr m
  done;
  (!y, !m, !rest + 1)

let to_string day =
  let y, m, d = to_ymd day in
  Printf.sprintf "%04d-%02d-%02d" y m d
