type kahan = { mutable total : float; mutable compensation : float }

let kahan () = { total = 0.0; compensation = 0.0 }

let kadd k x =
  let y = x -. k.compensation in
  let t = k.total +. y in
  k.compensation <- (t -. k.total) -. y;
  k.total <- t

let ksum k = k.total

type t = {
  dim : int;
  mutable count : int;
  sums : kahan array; (* dim entries *)
  cross : kahan array; (* upper triangle incl. diagonal, row-major *)
}

let tri_size dim = dim * (dim + 1) / 2

(* Index of the (i, j) cross-sum with i <= j. *)
let tri_index dim i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  (i * ((2 * dim) - i - 1) / 2) + j

let create ~dim =
  if dim <= 0 then invalid_arg "Moments.create: dim must be positive";
  {
    dim;
    count = 0;
    sums = Array.init dim (fun _ -> kahan ());
    cross = Array.init (tri_size dim) (fun _ -> kahan ());
  }

let add t obs =
  if Array.length obs <> t.dim then invalid_arg "Moments.add: dimension mismatch";
  t.count <- t.count + 1;
  for i = 0 to t.dim - 1 do
    kadd t.sums.(i) obs.(i);
    for j = i to t.dim - 1 do
      kadd t.cross.(tri_index t.dim i j) (obs.(i) *. obs.(j))
    done
  done

let add_zeros t k =
  if k < 0 then invalid_arg "Moments.add_zeros: negative count";
  t.count <- t.count + k

let n t = t.count
let sum t i = ksum t.sums.(i)
let mean t i = if t.count = 0 then 0.0 else sum t i /. float_of_int t.count

let sample_covariance t i j =
  if t.count < 2 then 0.0
  else begin
    let n = float_of_int t.count in
    let sij = ksum t.cross.(tri_index t.dim i j) in
    (sij -. (sum t i *. sum t j /. n)) /. (n -. 1.0)
  end

let sample_variance t i = sample_covariance t i i

let covariance_matrix t =
  Array.init t.dim (fun i -> Array.init t.dim (fun j -> sample_covariance t i j))
