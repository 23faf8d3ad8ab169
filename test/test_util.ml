(* Tests for wj_util: PRNG, Vec, Normal, Timer. *)

module Prng = Wj_util.Prng
module Vec = Wj_util.Vec
module Normal = Wj_util.Normal
module Timer = Wj_util.Timer
module Json = Wj_util.Json

let check_float = Alcotest.(check (float 1e-9))

(* ---- Prng ------------------------------------------------------------ *)

(* One raw 64-bit output of [t], read back through the public draws on
   copies of [t]: [int] sees bits 2-62, [float] bit 63 and [bool] bit 0.
   Bit 1 reaches only [split], so it reads as 0 here; the "split child"
   golden pins it.  Advances [t] by one output. *)
let raw t =
  let mid = Prng.int (Prng.copy t) (1 lsl 61) in
  let top = Prng.float (Prng.copy t) 1.0 >= 0.5 in
  let low = Prng.bool t in
  Int64.(
    logor (shift_left (of_int mid) 2)
      (logor (if top then min_int else 0L) (if low then 1L else 0L)))

(* A golden raw output as {!raw} reads it. *)
let without_bit1 x = Int64.logand x (-3L)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (raw a) (raw b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw a = raw b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 2)

let test_prng_copy_independent () =
  let a = Prng.create 5 in
  ignore (raw a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (raw a) (raw b);
  ignore (raw a);
  (* advancing a does not touch b *)
  let before = Prng.copy b in
  Alcotest.(check int64) "b unaffected" (raw before) (raw b)

let test_prng_int_bounds () =
  let t = Prng.create 9 in
  for _ = 1 to 10_000 do
    let x = Prng.int t 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_uniform () =
  (* Chi-square-style sanity check: 10 buckets, 100k draws; each bucket
     should be within 5% of the expected count. *)
  let t = Prng.create 31 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Prng.int t 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (abs (c - (n / 10)) < n / 10 / 20))
    buckets

let test_prng_float_bounds () =
  let t = Prng.create 13 in
  for _ = 1 to 10_000 do
    let x = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_float_mean () =
  let t = Prng.create 21 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_prng_shuffle_is_permutation () =
  let t = Prng.create 44 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 Fun.id)

let test_prng_split_independent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if raw parent = raw child then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 2)

(* The stream as it was when the generator kept its state in mutable
   [int64] fields: any rewrite of the generator must reproduce it bit for
   bit, or every fixed-seed result in the repository moves. *)
let test_prng_stream_golden () =
  let bits seed =
    let t = Prng.create seed in
    List.init 8 (fun _ -> raw t)
  in
  Alcotest.(check (list int64)) "seed 0 bits64"
    (List.map without_bit1
       [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
         7684712102626143532L; -4925340083591827879L; -4640532413560118L;
         7788427924976520344L; -8565655843838424513L ])
    (bits 0);
  Alcotest.(check (list int64)) "seed 7 bits64"
    (List.map without_bit1
       [ -5523389002881075622L; 5142052590334782674L; -2958351167216911978L;
         -348685429060373952L; -168598097271454952L; -2346906591474643895L;
         1120678062349637716L; 1926500276298015196L ])
    (bits 7);
  let t = Prng.create 7 in
  let ints bound = List.init 8 (fun _ -> Prng.int t bound) in
  Alcotest.(check (list int)) "int 1000" [ 998; 668; 909; 416; 166; 930; 429; 799 ]
    (ints 1000);
  Alcotest.(check (list int)) "int 7" [ 6; 4; 3; 3; 0; 0; 2; 2 ] (ints 7);
  (* Half of all 62-bit draws exceed the acceptance limit at this bound,
     so these eight values go through the rejection loop. *)
  Alcotest.(check (list int)) "int 2^61+1"
    [ 1183810524949157743; 2150236272186885223; 721728440135968078;
      616590115504062699; 790564882187303646; 1296236585804849770;
      593817715809498456; 188696664511578872 ]
    (ints ((1 lsl 61) + 1));
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.2e52bacd50eb2p-1; 0x1.676e73d334b24p-3; 0x1.eb408027c6e44p-2;
      0x1.66b3b690e82cp-4 ]
    (List.init 4 (fun _ -> Prng.float t 1.0));
  let child = Prng.split t in
  Alcotest.(check (list int64)) "split child"
    (List.map without_bit1
       [ 8986292124482823037L; -4261760201174626866L; 4302356401162474852L;
         -7541595251715800006L ])
    (List.init 4 (fun _ -> raw child));
  Alcotest.(check int64) "parent after split" (without_bit1 (-3256719437563326032L)) (raw t)

let test_prng_int_allocation_free () =
  let t = Prng.create 1 in
  let sink = ref 0 in
  let draw () =
    for i = 1 to 100_000 do
      (* Both paths: a power-of-two mask and the rejection loop. *)
      sink := !sink + Prng.int t (if i land 1 = 0 then 1000 else 1024)
    done
  in
  draw ();
  let w0 = Gc.minor_words () in
  draw ();
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  (* Reading the counter boxes a float or two; nothing else may allocate. *)
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words over 100k draws" words) true
    (words < 16.)

(* ---- Vec ------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 999 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  for i = 0 to 999 do
    Alcotest.(check int) "get" (i * 2) (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds")
    (fun () -> Vec.set v 5 0)

let test_vec_set () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.set v 1 42;
  Alcotest.(check (array int)) "set" [| 1; 42; 3 |] (Vec.to_array v)

let vec_model_test =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:500
    QCheck.(list (pair (int_range 0 2) small_nat))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [||] in
      List.iteri
        (fun i (op, j) ->
          let n = Array.length !model in
          match op with
          | 0 ->
            Vec.push v i;
            model := Array.append !model [| i |]
          | 1 when n > 0 ->
            Vec.set v (j mod n) i;
            !model.(j mod n) <- i
          | _ ->
            if Vec.length v <> n then QCheck.Test.fail_report "length mismatch";
            if n > 0 && Vec.get v (j mod n) <> !model.(j mod n) then
              QCheck.Test.fail_report "get mismatch")
        ops;
      Vec.to_array v = !model)

(* ---- Normal ---------------------------------------------------------- *)

let test_normal_cdf_known () =
  let cases = [ (0.0, 0.5); (1.0, 0.8413447); (-1.0, 0.1586553); (1.96, 0.9750021) ] in
  List.iter
    (fun (x, expected) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "cdf(%g)" x)
        expected (Normal.cdf x))
    cases

let test_normal_quantile_known () =
  Alcotest.(check (float 1e-6)) "median" 0.0 (Normal.quantile 0.5);
  Alcotest.(check (float 1e-4)) "97.5%" 1.959964 (Normal.quantile 0.975);
  Alcotest.(check (float 1e-4)) "2.5%" (-1.959964) (Normal.quantile 0.025);
  Alcotest.(check (float 1e-3)) "99.5%" 2.575829 (Normal.quantile 0.995)

let test_normal_roundtrip () =
  List.iter
    (fun p ->
      let x = Normal.quantile p in
      Alcotest.(check (float 1e-5)) (Printf.sprintf "cdf(quantile %g)" p) p (Normal.cdf x))
    [ 0.001; 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99; 0.999 ]

let test_normal_z_of_confidence () =
  Alcotest.(check (float 1e-4)) "95%" 1.959964 (Normal.z_of_confidence 0.95);
  Alcotest.(check (float 1e-4)) "99%" 2.575829 (Normal.z_of_confidence 0.99);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Normal.z_of_confidence: alpha must lie in (0,1)") (fun () ->
      ignore (Normal.z_of_confidence 1.5))

let test_normal_quantile_domain () =
  Alcotest.check_raises "p=0" (Invalid_argument "Normal.quantile: p must lie in (0,1)")
    (fun () -> ignore (Normal.quantile 0.0));
  Alcotest.check_raises "p=1" (Invalid_argument "Normal.quantile: p must lie in (0,1)")
    (fun () -> ignore (Normal.quantile 1.0))

(* ---- Timer ----------------------------------------------------------- *)

let test_timer_virtual () =
  let c = Timer.virtual_ () in
  Alcotest.(check bool) "is virtual" true (Timer.is_virtual c);
  check_float "starts at 0" 0.0 (Timer.elapsed c);
  Timer.advance c 1.5;
  Timer.advance c 0.25;
  check_float "advanced" 1.75 (Timer.elapsed c);
  Alcotest.check_raises "negative" (Invalid_argument "Timer.advance: negative amount")
    (fun () -> Timer.advance c (-1.0))

let test_timer_wall () =
  let c = Timer.wall () in
  Alcotest.(check bool) "not virtual" false (Timer.is_virtual c);
  Alcotest.(check bool) "monotone" true (Timer.elapsed c >= 0.0);
  Alcotest.check_raises "cannot advance"
    (Invalid_argument "Timer.advance: cannot advance a wall clock") (fun () ->
      Timer.advance c 1.0)

let test_timer_hybrid () =
  let c = Timer.hybrid () in
  Alcotest.(check bool) "hybrid accepts advance" true (Timer.is_virtual c);
  let before = Timer.elapsed c in
  Timer.advance c 2.0;
  let after = Timer.elapsed c in
  (* Simulated charge plus (tiny) real elapsed time. *)
  Alcotest.(check bool) "charge visible" true (after -. before >= 2.0);
  Alcotest.(check bool) "real time included" true (after >= 2.0)

let test_timer_time_it () =
  let x, dt = Timer.time_it (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

(* ---- JSON codec ---------------------------------------------------------- *)

(* Strings that stress the escaper: quotes, backslashes, every control
   byte and bytes >= 0x80, which print raw. *)
let json_string_gen =
  QCheck.Gen.(
    string_size
      ~gen:(oneof [ oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\127' ];
                    char_range '\000' '\031'; char_range '\128' '\255'; printable ])
      (int_range 0 12))

(* Finite floats only: JSON has no non-finite numbers, so the codec
   prints those as strings and they come back as [Str]. *)
let json_float_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; 1.0; -3.0; 0.1; 1e300; -1e-300; 5e-324; max_float; min_float ];
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
      ])

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (oneof [ oneofl [ min_int; max_int; 0; -1 ]; int ]);
                 map (fun f -> Json.Float f) json_float_gen;
                 map (fun s -> Json.Str s) json_string_gen;
               ]
           in
           if n <= 0 then leaf
           else
             let sub = list_size (int_range 0 4) (self (n / 3)) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) sub);
                 (1, map (fun kvs -> Json.Obj kvs)
                       (list_size (int_range 0 4) (pair json_string_gen (self (n / 3)))));
               ]))

let json_arb = QCheck.make ~print:Json.to_string json_gen

(* Structural equality with floats compared by their bits, so -0.0 and
   0.0 differ. *)
let rec json_same a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_same v1 v2) xs ys
  | _ -> a = b

let json_roundtrip_test =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:1000 json_arb (fun v ->
      json_same (Json.parse (Json.to_string v)) v)

(* Significant digits of a printed float: the mantissa's digits without
   leading or trailing zeros. *)
let significant_digits s =
  let mantissa = match String.index_opt s 'e' with Some i -> String.sub s 0 i | None -> s in
  let digits = String.concat "" (String.split_on_char '.' mantissa) in
  let digits = String.concat "" (String.split_on_char '-' digits) in
  let n = String.length digits in
  let first = ref 0 and last = ref (n - 1) in
  while !first < n && digits.[!first] = '0' do incr first done;
  while !last >= !first && digits.[!last] = '0' do decr last done;
  !last - !first + 1

(* A finite float prints as the shortest %g form that parses back to it:
   one significant digit fewer no longer round-trips.  Subnormals are
   exempt: with under 15 digits of precision, a shorter form than the
   15 digits printed can parse back to them. *)
let json_float_shortest_test =
  QCheck.Test.make ~name:"a float prints in its shortest round-trip form" ~count:1000
    (QCheck.make ~print:string_of_float json_float_gen)
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      let d = significant_digits s in
      Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float f)
      && (d <= 1
         || Float.abs f < Float.min_float
         || float_of_string (Printf.sprintf "%.*g" (d - 1) f) <> f))

let test_json_float_forms () =
  List.iter
    (fun (f, s) -> Alcotest.(check string) (Printf.sprintf "%h" f) s (Json.to_string (Json.Float f)))
    [
      (0.1, "0.1");
      (1.0, "1.0");
      (-0.0, "-0.0");
      (1e300, "1e+300");
      (0.1 +. 0.2, "0.30000000000000004");
      (1. /. 3., "0.3333333333333333");
      (5e-324, "4.94065645841247e-324");
      (6932.020187, "6932.020187");
    ]

(* A byte replaced, deleted, inserted or the document cut short: the
   result parses or raises [Parse_error], never anything else. *)
let json_mutation_test =
  let gen =
    QCheck.Gen.(
      json_gen >>= fun v ->
      let doc = Json.to_string v in
      let n = String.length doc in
      int_range 0 (n - 1) >>= fun i ->
      char >>= fun c ->
      oneofl
        [
          String.mapi (fun j d -> if j = i then c else d) doc;
          String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1);
          String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (n - i);
          String.sub doc 0 i;
        ])
  in
  QCheck.Test.make ~name:"mutated documents raise only Parse_error" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun doc ->
      match Json.parse doc with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let () =
  Alcotest.run "wj_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_prng_int_uniform;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "float mean" `Slow test_prng_float_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "stream golden" `Quick test_prng_stream_golden;
          Alcotest.test_case "int allocation-free" `Quick test_prng_int_allocation_free;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "set" `Quick test_vec_set;
          QCheck_alcotest.to_alcotest vec_model_test;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf known values" `Quick test_normal_cdf_known;
          Alcotest.test_case "quantile known values" `Quick test_normal_quantile_known;
          Alcotest.test_case "roundtrip" `Quick test_normal_roundtrip;
          Alcotest.test_case "z_of_confidence" `Quick test_normal_z_of_confidence;
          Alcotest.test_case "quantile domain" `Quick test_normal_quantile_domain;
        ] );
      ( "timer",
        [
          Alcotest.test_case "virtual clock" `Quick test_timer_virtual;
          Alcotest.test_case "wall clock" `Quick test_timer_wall;
          Alcotest.test_case "hybrid clock" `Quick test_timer_hybrid;
          Alcotest.test_case "time_it" `Quick test_timer_time_it;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest json_roundtrip_test;
          QCheck_alcotest.to_alcotest json_float_shortest_test;
          Alcotest.test_case "float forms" `Quick test_json_float_forms;
          QCheck_alcotest.to_alcotest json_mutation_test;
        ] );
    ]
