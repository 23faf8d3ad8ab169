type point = { x : float; y : float }

type t = {
  capacity : int;
  mutable stride : int;
  mutable kept : point array;
  mutable len : int;
  mutable pushes : int;
  mutable latest : point;
  mutable latest_kept : bool;
}

let dummy = { x = 0.0; y = 0.0 }

let create ?(capacity = 512) () =
  if capacity < 2 then invalid_arg "Timeseries.create: capacity must be >= 2";
  {
    capacity;
    stride = 1;
    kept = Array.make capacity dummy;
    len = 0;
    pushes = 0;
    latest = dummy;
    latest_kept = false;
  }

let capacity t = t.capacity
let pushes t = t.pushes
let stride t = t.stride

(* Keep the even-indexed half of the kept samples and double the stride.
   Kept sample [i] corresponds to push [i * stride], so the survivors sit
   at pushes [0, 2*stride, 4*stride, ...] — exactly the multiples of the
   doubled stride, which is what keeps the decimation rule
   [push_index mod stride = 0] consistent across compactions. *)
let compact t =
  let new_len = (t.len + 1) / 2 in
  for i = 0 to new_len - 1 do
    t.kept.(i) <- t.kept.(2 * i)
  done;
  t.len <- new_len;
  t.stride <- t.stride * 2

let push t ~x ~y =
  let p = { x; y } in
  let idx = t.pushes in
  t.pushes <- idx + 1;
  t.latest <- p;
  (* Compact (reserving one slot below [capacity] for the always-retained
     latest point) BEFORE testing alignment: doubling the stride may
     decimate this very push, and the rule [idx mod stride = 0] must be
     evaluated against the post-compaction stride or stored points drift
     off the stride grid. *)
  if idx mod t.stride = 0 && t.len >= t.capacity - 1 then compact t;
  if idx mod t.stride = 0 then begin
    t.kept.(t.len) <- p;
    t.len <- t.len + 1;
    t.latest_kept <- true
  end
  else t.latest_kept <- false

let last t = if t.pushes = 0 then None else Some (t.latest.x, t.latest.y)
let length t = if t.pushes = 0 then 0 else t.len + if t.latest_kept then 0 else 1

let to_array t =
  let n = length t in
  Array.init n (fun i ->
      let p = if i < t.len then t.kept.(i) else t.latest in
      (p.x, p.y))
