(* Timing, order statistics, metric records and the correctness tally
   shared by every wjbench workload. *)

module Json = Wj_daemon.Json

let clock = Wj_util.Timer.wall ()
let now () = Wj_util.Timer.elapsed clock

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [p] in [0, 100]; nan on an empty sample. *)
let percentile xs p =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Megabytes reachable from [state] and not from [inputs]: the memory a
   workload's ready state holds on top of its generated tables (indexes,
   tries, pool frames, daemon caches), exactly.  The tables are left out
   because their size is the generator's: lineitem's columns are sized to
   the expected row count and double on about half the seeds.  The
   collector's heap size would not do either; it moves in steps set by
   when collection cycles happen to end. *)
let held_mb ~inputs state =
  let words v = float_of_int (Obj.reachable_words (Obj.repr v)) in
  (words (inputs, state) -. words inputs) *. 8.0 /. 1e6

let minimum xs = List.fold_left Float.min Float.infinity xs
let maximum xs = List.fold_left Float.max Float.neg_infinity xs

(* ---- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_) ms

(* ---- correctness ---------------------------------------------------------- *)

(* Every checked answer counts as attempted; a failed check prints why on
   stderr and counts as failed.  The run's [correct] flag is [failed = 0]. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        Printf.eprintf "wjbench: FAILED %s\n%!" msg
      end)
    fmt

(* A wander-join answer is accepted when its CI reached the requested
   width and the truth lies within [tolerance] half-widths of it.  The
   tolerance is 3, not 2: comparing two commits takes thousands of
   sessions, and even a normal CI fails at 2 half-widths about once in
   ten thousand. *)
let tolerance = 3.0

let check_answer t ~what ~truth ~target ~estimate ~half_width =
  check t
    (Float.is_finite estimate && Float.is_finite half_width
    && half_width <= (target *. Float.abs estimate) +. 1e-9
    && Float.abs (estimate -. truth) <= tolerance *. half_width)
    "%s: estimate %.9g +/- %.6g (target %.4g%%), truth %.9g" what estimate half_width
    (100.0 *. target) truth

(* ---- output --------------------------------------------------------------- *)

let git_rev () =
  let read path = try Some (String.trim (In_channel.with_open_text path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with Some rev -> rev | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let meta_line ~workload ~seed ~sf ~traced =
  Json.to_string
    (Json.Obj
       [
         ( "meta",
           Json.Obj
             [
               ("workload", Json.Str workload);
               ("git_rev", Json.Str (git_rev ()));
               ("nproc", Json.Int (Domain.recommended_domain_count ()));
               ("sf", Json.Float sf);
               ("seed", Json.Int seed);
               ("ocaml", Json.Str Sys.ocaml_version);
               ("traced", Json.Bool traced);
             ] );
       ])

let result_line t ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", Json.Int (max 1 t.attempted));
         ("failed", Json.Int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                ms) );
       ])
