(** Day-offset date codec (TPC-H calendar).

    Dates are stored as integer day offsets from 1992-01-01, which makes
    them indexable by the ordered index and usable in band joins. *)

val of_ymd : int -> int -> int -> int
(** [of_ymd y m d]: day offset of the given Gregorian date.
    Raises [Invalid_argument] outside 1992-01-01 .. 1998-12-31. *)

val to_ymd : int -> int * int * int
val to_string : int -> string
(** ISO format, e.g. "1995-03-15". *)

val min_day : int
(** 0, i.e. 1992-01-01. *)

val max_day : int
(** 1998-12-31. *)
