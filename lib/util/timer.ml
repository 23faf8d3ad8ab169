let now () = Unix.gettimeofday ()

type kind = Wall | Virtual | Hybrid

type t = { kind : kind; origin : float; mutable vtime : float }

let wall () = { kind = Wall; origin = now (); vtime = 0.0 }
let virtual_ () = { kind = Virtual; origin = 0.0; vtime = 0.0 }
let hybrid () = { kind = Hybrid; origin = now (); vtime = 0.0 }

let elapsed t =
  match t.kind with
  | Wall -> now () -. t.origin
  | Virtual -> t.vtime
  | Hybrid -> now () -. t.origin +. t.vtime

let advance t dt =
  match t.kind with
  | Wall -> invalid_arg "Timer.advance: cannot advance a wall clock"
  | Virtual | Hybrid ->
    if dt < 0.0 then invalid_arg "Timer.advance: negative amount";
    t.vtime <- t.vtime +. dt

let is_virtual t = t.kind = Virtual || t.kind = Hybrid

let time_it f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)
