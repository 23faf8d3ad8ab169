type column = { name : string; ty : Value.ty }

type t = { cols : column array; by_name : (string, int) Hashtbl.t }

let make cols =
  if cols = [] then invalid_arg "Schema.make: empty column list";
  let arr = Array.of_list cols in
  let by_name = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem by_name c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add by_name c.name i)
    arr;
  { cols = arr; by_name }

let arity t = Array.length t.cols
let column t i = t.cols.(i)
let find t name = Hashtbl.find_opt t.by_name name

let find_exn t name =
  match find t name with Some i -> i | None -> raise Not_found

let ty_of t i = t.cols.(i).ty

let check_tuple t tup =
  Array.length tup = arity t
  && Array.for_all2
       (fun col v ->
         match Value.type_of v with None -> true | Some ty -> ty = col.ty)
       t.cols tup
