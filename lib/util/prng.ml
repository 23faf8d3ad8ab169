(* The four xoshiro256** state words live in a 32-byte buffer: the
   [Bytes.get/set_int64_ne] primitives read and write them unboxed, so a
   draw allocates nothing (mutable [int64] record fields would box every
   store). *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_ne t (i * 8)
let[@inline] set t i x = Bytes.set_int64_ne t (i * 8) x

(* splitmix64: used only to expand the seed into the four xoshiro words, as
   recommended by the xoshiro authors. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix_next state)
  done;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step; inlined into every caller so the result stays
   unboxed unless the caller itself returns it. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let split t = of_splitmix (ref (next t))

(* 62 uniform random bits as a non-negative OCaml int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    (* Rejection sampling over the largest multiple of [bound] below 2^62. *)
    let max62 = (1 lsl 62) - 1 in
    let limit = max62 - (((max62 mod bound) + 1) mod bound) in
    let r = ref (bits62 t) in
    while !r > limit do
      r := bits62 t
    done;
    !r mod bound
  end

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let mantissa = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  bound *. (float_of_int mantissa *. 0x1p-53)

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
