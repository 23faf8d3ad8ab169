(** Runtime values stored in table cells.

    TPC-H columns are integers (keys, dates encoded as day numbers), floats
    (prices, discounts) and strings (names, flags).  Join attributes are
    always integer-typed here: string join keys are dictionary-encoded at
    load time (see {!Schema}). *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Null

type ty = TInt | TFloat | TStr

val type_of : t -> ty option
(** [None] for [Null]. *)

val to_int : t -> int
(** Raises [Invalid_argument] unless the value is [Int]. *)

val to_float : t -> float
(** Numeric coercion: [Int n -> float n], [Float f -> f]; raises otherwise. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order: Null < Int/Float (numeric order, cross-type compared
    numerically) < Str (lexicographic). *)

val pp : Format.formatter -> t -> unit
val to_display : t -> string
