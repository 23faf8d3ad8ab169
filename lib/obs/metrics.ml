type family =
  | Counter of Counter.t
  | Histogram of Histogram.t
  | Gauge of Gauge.t

(* Arena chunks never move once allocated, so handles can capture the
   backing array directly; growing the registry allocates further chunks
   instead of resizing. *)
let chunk_size = 256

(* The mutable arenas and the name table live in a [core] shared by every
   scoped view of a registry: views differ only in the name prefix they
   apply at find-or-create time, so allocation cursors and registrations
   stay coherent no matter which view performs them. *)
type core = {
  mutable ichunk : int array;
  mutable iused : int;
  mutable fchunk : float array;
  mutable fused : int;
  table : (string, family) Hashtbl.t;
}

type t = { core : core; prefix : string }

let create () =
  {
    core =
      {
        ichunk = Array.make chunk_size 0;
        iused = 0;
        fchunk = Array.make chunk_size 0.0;
        fused = 0;
        table = Hashtbl.create 64;
      };
    prefix = "";
  }

let scoped t name =
  if name = "" then invalid_arg "Metrics.scoped: empty scope name";
  { t with prefix = t.prefix ^ name ^ "." }

let prefix t = t.prefix

let alloc_int c n =
  if n > chunk_size then (Array.make n 0, 0)
  else begin
    if c.iused + n > chunk_size then begin
      c.ichunk <- Array.make chunk_size 0;
      c.iused <- 0
    end;
    let off = c.iused in
    c.iused <- c.iused + n;
    (c.ichunk, off)
  end

let alloc_float c =
  if c.fused >= chunk_size then begin
    c.fchunk <- Array.make chunk_size 0.0;
    c.fused <- 0
  end;
  let off = c.fused in
  c.fused <- c.fused + 1;
  (c.fchunk, off)

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " is registered as another kind")

let counter t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.core.table name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let cells, off = alloc_int t.core 1 in
    let c = Counter.of_cells cells off in
    Hashtbl.add t.core.table name (Counter c);
    c

let histogram t ?(buckets = 32) name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.core.table name with
  | Some (Histogram h) -> h
  | Some _ -> kind_error name
  | None ->
    let cells, off = alloc_int t.core buckets in
    let h = Histogram.of_cells cells off ~buckets in
    Hashtbl.add t.core.table name (Histogram h);
    h

let gauge t name =
  let name = t.prefix ^ name in
  match Hashtbl.find_opt t.core.table name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let cells, off = alloc_float t.core in
    let g = Gauge.of_cells cells off in
    Hashtbl.add t.core.table name (Gauge g);
    g

let families t =
  Hashtbl.fold (fun name fam acc -> (name, fam) :: acc) t.core.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Add a counter's value or a histogram's buckets into the family [name]
   of [into] (find-or-create, so the family set does not depend on which
   cells were zero); a gauge is not a count and is left to the caller. *)
let add_counts into name = function
  | Counter c -> Counter.add (counter into name) (Counter.value c)
  | Histogram h ->
    let buckets = Histogram.buckets h in
    let dst = histogram into ~buckets name in
    for b = 0 to buckets - 1 do
      let n = Histogram.count h b in
      if n <> 0 then Histogram.add dst b n
    done
  | Gauge _ -> ()

(* Fold [src]'s families into [into] (find-or-create under [into]'s
   prefix): counters and histograms add, gauges take the source's value.
   [families] is name-sorted, so a fixed sequence of merges lands cells
   in a deterministic registration order.  The domain-sharded scheduler
   merges each shard's registry into the main one at the join barrier, in
   shard order. *)
let merge ~into src =
  List.iter
    (fun (name, fam) ->
      match fam with
      | Gauge g -> Gauge.set (gauge into name) (Gauge.value g)
      | Counter _ | Histogram _ -> add_counts into name fam)
    (families src)

(* Retire a scope: its counters and histograms add into the same names one
   scope up, its gauges are dropped, and every one of its names leaves the
   table.  Handles into the scope keep their cells but are no longer
   reachable by name. *)
let fold_scope t name =
  let scope = t.prefix ^ name ^ "." in
  let n = String.length scope in
  List.iter
    (fun (full, fam) ->
      if String.starts_with ~prefix:scope full then begin
        add_counts t (String.sub full n (String.length full - n)) fam;
        Hashtbl.remove t.core.table full
      end)
    (families t)
