(** Table schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }

type t

val make : column list -> t
(** Raises [Invalid_argument] on duplicate column names or an empty list. *)

val arity : t -> int
val column : t -> int -> column
val find : t -> string -> int option
(** Position of a column by name. *)

val find_exn : t -> string -> int
(** Like {!find}; raises [Not_found]. *)

val ty_of : t -> int -> Value.ty

val check_tuple : t -> Value.t array -> bool
(** True when the tuple matches the schema's arity and per-column types
    (Null is accepted in any column). *)
