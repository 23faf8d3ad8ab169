type phase = Begin | End | Instant

type event = { name : string; cat : string; ph : phase; ts : float }

type total = { mutable seconds : float; mutable count : int }

type t = {
  capacity : int;
  events : event array;
  mutable len : int;
  mutable dropped : int;
  mutable depth : int;
  mutable open_spans : (string * float) list;
  totals : (string, total) Hashtbl.t;
  clock : Wj_util.Timer.t;
}

let dummy = { name = ""; cat = ""; ph = Instant; ts = 0.0 }

let create ?(capacity = 8192) ?clock () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  let clock = match clock with Some c -> c | None -> Wj_util.Timer.wall () in
  {
    capacity;
    events = Array.make capacity dummy;
    len = 0;
    dropped = 0;
    depth = 0;
    open_spans = [];
    totals = Hashtbl.create 16;
    clock;
  }

let record t ev =
  if t.len < t.capacity then begin
    t.events.(t.len) <- ev;
    t.len <- t.len + 1
  end
  else t.dropped <- t.dropped + 1

let now t = Wj_util.Timer.elapsed t.clock

let span_begin t ?(cat = "wj") name =
  let ts = now t in
  t.depth <- t.depth + 1;
  t.open_spans <- (name, ts) :: t.open_spans;
  record t { name; cat; ph = Begin; ts }

let credit t name seconds =
  let tot =
    match Hashtbl.find_opt t.totals name with
    | Some tot -> tot
    | None ->
      let tot = { seconds = 0.0; count = 0 } in
      Hashtbl.add t.totals name tot;
      tot
  in
  tot.seconds <- tot.seconds +. seconds;
  tot.count <- tot.count + 1

(* Ends the innermost open span.  An [span_end] with no span open is a
   producer bug but must not corrupt the recorder: it is counted as a
   drop and otherwise ignored, and [depth] never goes negative. *)
let span_end t ?(cat = "wj") () =
  match t.open_spans with
  | [] -> t.dropped <- t.dropped + 1
  | (name, t0) :: rest ->
    let ts = now t in
    t.depth <- t.depth - 1;
    t.open_spans <- rest;
    credit t name (ts -. t0);
    record t { name; cat; ph = End; ts }

let instant t ?(cat = "wj") name =
  credit t name 0.0;
  record t { name; cat; ph = Instant; ts = now t }

let depth t = t.depth
let length t = t.len
let dropped t = t.dropped
let capacity t = t.capacity
let clock t = t.clock

let totals t =
  Hashtbl.fold (fun name tot acc -> (name, (tot.seconds, tot.count)) :: acc) t.totals []
  |> List.sort compare

(* Append [src]'s buffered events and fold its totals into [into].
   Events keep their recorded timestamps (shard traces share the parent
   clock), so a merged trace renders on one timeline; [into]'s open-span
   stack is untouched — the source must be balanced, which a completed
   drain guarantees. *)
let merge ~into src =
  for i = 0 to src.len - 1 do
    record into src.events.(i)
  done;
  into.dropped <- into.dropped + src.dropped;
  Hashtbl.iter
    (fun name tot ->
      let dst =
        match Hashtbl.find_opt into.totals name with
        | Some dst -> dst
        | None ->
          let dst = { seconds = 0.0; count = 0 } in
          Hashtbl.add into.totals name dst;
          dst
      in
      dst.seconds <- dst.seconds +. tot.seconds;
      dst.count <- dst.count + tot.count)
    src.totals

(* ---- Chrome trace_event export --------------------------------------- *)

module Json = Wj_util.Json

(* Microseconds rounded to the nanosecond: finer digits are clock noise
   and only lengthen the document. *)
let micros seconds = Json.Float (Float.round (seconds *. 1e9) /. 1e3)

(* One event as a Chrome trace_event object.  [ts] is microseconds
   relative to the trace clock's origin, which Chrome renders fine (it
   normalises to the earliest timestamp). *)
let event_json ev =
  let ph, extra =
    match ev.ph with
    | Begin -> ("B", [])
    | End -> ("E", [])
    | Instant -> ("i", [ ("s", Json.Str "t") ])
  in
  Json.Obj
    ([
       ("name", Json.Str ev.name);
       ("cat", Json.Str ev.cat);
       ("ph", Json.Str ph);
       ("ts", micros ev.ts);
       ("pid", Json.Int 1);
       ("tid", Json.Int 1);
     ]
    @ extra)

let events_json t = Json.List (List.init t.len (fun i -> event_json t.events.(i)))
let to_json t = Json.Obj [ ("traceEvents", events_json t) ]

(* ---- Chrome trace_event reader ---------------------------------------- *)

(* The trace_event dialect {!to_json} (and the recorder's combined dump)
   emit: a top-level object whose ["traceEvents"] member is an array of
   event objects.  Other members, and event fields beside name / cat /
   ph / ts, are skipped. *)
let events_of_json s =
  let fail msg = raise (Json.Parse_error ("Trace.events_of_json: " ^ msg)) in
  let event = function
    | Json.Obj fs ->
      let str key =
        match List.assoc_opt key fs with
        | None -> ""
        | Some (Json.Str v) -> v
        | Some _ -> fail (key ^ " is not a string")
      in
      let ts =
        match List.assoc_opt "ts" fs with
        | None -> 0.0
        | Some v -> (
          match Json.to_float v with Some f -> f | None -> fail "ts is not a number")
      in
      (str "name", str "cat", str "ph", ts /. 1e6)
    | _ -> fail "an event is not an object"
  in
  match Json.parse s with
  | Json.Obj fs -> (
    match List.assoc_opt "traceEvents" fs with
    | None -> []
    | Some (Json.List evs) -> List.map event evs
    | Some _ -> fail "traceEvents is not an array")
  | _ -> fail "expected an object"
