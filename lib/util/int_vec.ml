type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get: index out of bounds";
  Array.unsafe_get t.data i

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Int_vec.truncate: bad length";
  t.len <- n

let data t = t.data
