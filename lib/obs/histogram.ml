type t = { cells : int array; off : int; buckets : int }

let of_cells cells off ~buckets =
  if buckets < 1 then invalid_arg "Histogram.of_cells: buckets must be >= 1";
  { cells; off; buckets }

let buckets t = t.buckets

let[@inline] clamp t i = if i < 0 then 0 else if i >= t.buckets then t.buckets - 1 else i

let[@inline] observe t i =
  let j = t.off + clamp t i in
  t.cells.(j) <- t.cells.(j) + 1

let[@inline] add t i n =
  let j = t.off + clamp t i in
  t.cells.(j) <- t.cells.(j) + n

let count t i = t.cells.(t.off + clamp t i)

let total t =
  let s = ref 0 in
  for i = 0 to t.buckets - 1 do
    s := !s + t.cells.(t.off + i)
  done;
  !s

let to_array t = Array.sub t.cells t.off t.buckets
