type t = { cells : float array; off : int }

let of_cells cells off = { cells; off }
let[@inline] set t v = t.cells.(t.off) <- v
let[@inline] add t v = t.cells.(t.off) <- t.cells.(t.off) +. v
let[@inline] value t = t.cells.(t.off)
