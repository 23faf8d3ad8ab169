type 'a slot = { value : 'a; mutable last_used : int }

type 'a t = {
  table : (string, 'a slot) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { table = Hashtbl.create 64; capacity; clock = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some slot ->
    slot.last_used <- tick t;
    Some slot.value

let evict_lru t =
  let older key slot acc =
    match acc with
    | Some (_, oldest) when oldest.last_used <= slot.last_used -> acc
    | _ -> Some (key, slot)
  in
  Option.iter (fun (key, _) -> Hashtbl.remove t.table key) (Hashtbl.fold older t.table None)

let add t key value =
  let evict = (not (Hashtbl.mem t.table key)) && Hashtbl.length t.table >= t.capacity in
  if evict then evict_lru t;
  Hashtbl.replace t.table key { value; last_used = tick t };
  evict

let remove t key = Hashtbl.remove t.table key
let length t = Hashtbl.length t.table
