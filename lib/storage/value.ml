type t =
  | Int of int
  | Float of float
  | Str of string
  | Null

type ty = TInt | TFloat | TStr

let type_of = function
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr
  | Null -> None

let to_int = function
  | Int n -> n
  | Float _ | Str _ | Null -> invalid_arg "Value.to_int: not an Int"

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Str x, Str y -> String.equal x y
  | Null, Null -> true
  | (Int _ | Float _ | Str _ | Null), _ -> false

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | (Int _ | Float _), Str _ -> -1
  | Str _, (Int _ | Float _) -> 1
  | Str x, Str y -> String.compare x y

let pp fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Null -> Format.fprintf fmt "NULL"

let to_display v = Format.asprintf "%a" pp v
