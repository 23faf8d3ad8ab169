(** Last-value-wins gauge: one cell of a flat float array.

    Gauges report a level (buffer-pool residency, simulated seconds
    charged) rather than a count; [set] overwrites, [add] accumulates.
    Float stores are word-sized on 64-bit platforms, so concurrent writers
    never tear a value. *)

type t

val of_cells : float array -> int -> t
(** A gauge backed by cell [off] of a caller-owned arena. *)

val set : t -> float -> unit
(** Overwrite the level. *)

val add : t -> float -> unit
(** Accumulate into the level. *)

val value : t -> float
(** Current level. *)
