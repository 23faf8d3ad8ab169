(** Fixed-capacity time series with power-of-two downsampling.

    The flight recorder samples every registered metric at each report
    tick; a long run produces an unbounded number of ticks, but the
    recorder must stay bounded-memory.  A [Timeseries.t] keeps at most
    [capacity] points: it stores every [stride]-th push (stride starts at
    1) and, when the kept buffer fills, discards every other kept point
    and doubles the stride.  The result is a uniformly decimated
    trajectory whose resolution degrades gracefully — a run of a million
    ticks still renders as [capacity] evenly spaced points.

    Two invariants hold for arbitrary push sequences (QCheck-tested):
    {ul
    {- [Array.length (to_array t) <= capacity t];}
    {- the most recent push is always the last element of [to_array t],
       regardless of decimation.}} *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 512; raises [Invalid_argument] when [< 2]. *)

val push : t -> x:float -> y:float -> unit
(** Record one sample.  [x] is the series axis (elapsed seconds or walk
    count — caller's choice, expected monotone); [y] the value. *)

val to_array : t -> (float * float) array
(** The retained points in push order: the decimated samples plus, when
    the newest push was itself dropped by decimation, that newest push
    appended at the end. *)

val last : t -> (float * float) option
(** The most recent push, if any — always retained. *)

val length : t -> int
(** [Array.length (to_array t)] without building the array. *)

val capacity : t -> int

val pushes : t -> int
(** Total pushes ever, including decimated-away ones. *)

val stride : t -> int
(** Current decimation stride (a power of two; 1 until the first
    compaction). *)
