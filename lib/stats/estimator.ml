type agg = Sum | Count | Avg | Variance | Stdev

let agg_to_string = function
  | Sum -> "SUM"
  | Count -> "COUNT"
  | Avg -> "AVG"
  | Variance -> "VARIANCE"
  | Stdev -> "STDEV"

(* Observation vector per walk: index 0 = u, 1 = u*v, 2 = u*v^2. *)
type t = { agg : agg; moments : Moments.t; mutable successes : int }

let iu = 0
let iuv = 1
let iuv2 = 2

let create agg = { agg; moments = Moments.create ~dim:3; successes = 0 }
let agg t = t.agg

let add t ~u ~v =
  if u <= 0.0 then invalid_arg "Estimator.add: weight must be positive";
  t.successes <- t.successes + 1;
  Moments.add t.moments [| u; u *. v; u *. v *. v |]

let add_failure t = Moments.add t.moments [| 0.0; 0.0; 0.0 |]
let add_failures t k = Moments.add_zeros t.moments k
let n t = Moments.n t.moments
let successes t = t.successes

let ratio t num den =
  let d = Moments.mean t.moments den in
  if d = 0.0 then nan else Moments.mean t.moments num /. d

let estimate t =
  match t.agg with
  | Sum -> Moments.mean t.moments iuv
  | Count -> Moments.mean t.moments iu
  | Avg -> ratio t iuv iu
  | Variance ->
    let m2 = ratio t iuv2 iu and m1 = ratio t iuv iu in
    if Float.is_nan m2 then nan else m2 -. (m1 *. m1)
  | Stdev ->
    let m2 = ratio t iuv2 iu and m1 = ratio t iuv iu in
    if Float.is_nan m2 then nan else sqrt (Float.max 0.0 (m2 -. (m1 *. m1)))

(* Delta-method variance for g(mean vector): grad' Sigma grad where Sigma is
   the sample covariance of one observation. *)
let delta_variance t grad =
  let sigma = Moments.covariance_matrix t.moments in
  let acc = ref 0.0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      acc := !acc +. (grad.(i) *. sigma.(i).(j) *. grad.(j))
    done
  done;
  Float.max 0.0 !acc

let variance_of_walk t =
  let m = t.moments in
  if Moments.n m < 2 then 0.0
  else begin
    match t.agg with
    (* The power-sum variance of constant observations (every walk with the
       same weight, as on a chain of foreign keys) can cancel to a tiny
       negative value, which would make the half-width nan. *)
    | Sum -> Float.max 0.0 (Moments.sample_variance m iuv)
    | Count -> Float.max 0.0 (Moments.sample_variance m iu)
    | Avg ->
      (* σ² = (Tn2(uv) − 2R·Tn11(uv,u) + R²·Tn2(u)) / Tn(u)²  (Appendix A) *)
      let tu = Moments.mean m iu in
      if tu = 0.0 then 0.0
      else begin
        let r = Moments.mean m iuv /. tu in
        let v =
          (Moments.sample_variance m iuv
          -. (2.0 *. r *. Moments.sample_covariance m iuv iu)
          +. (r *. r *. Moments.sample_variance m iu))
          /. (tu *. tu)
        in
        Float.max 0.0 v
      end
    | Variance | Stdev ->
      let tu = Moments.mean m iu in
      if tu = 0.0 then 0.0
      else begin
        (* g(a,b,c) = a/c − (b/c)² over (c,b,a) = (u, uv, uv²) means. *)
        let a = Moments.mean m iuv2
        and b = Moments.mean m iuv
        and c = tu in
        let grad =
          [|
            (* d/du *) (-.a /. (c *. c)) +. (2.0 *. b *. b /. (c *. c *. c));
            (* d/duv *) -2.0 *. b /. (c *. c);
            (* d/duv2 *) 1.0 /. c;
          |]
        in
        let var_of_var = delta_variance t grad in
        match t.agg with
        | Variance -> var_of_var
        | Stdev ->
          let sd = estimate t in
          if (not (Float.is_finite sd)) || sd <= 0.0 then var_of_var
          else var_of_var /. (4.0 *. sd *. sd)
        | Sum | Count | Avg -> assert false
      end
  end

let half_width t ~confidence =
  let count = n t in
  if count < 2 || t.successes = 0 then infinity
  else begin
    let z = Wj_util.Normal.z_of_confidence confidence in
    z *. sqrt (variance_of_walk t) /. sqrt (float_of_int count)
  end
