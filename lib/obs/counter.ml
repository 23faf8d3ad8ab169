type t = { cells : int array; off : int }

let of_cells cells off = { cells; off }
let[@inline] incr t = t.cells.(t.off) <- t.cells.(t.off) + 1
let[@inline] add t n = t.cells.(t.off) <- t.cells.(t.off) + n
let[@inline] value t = t.cells.(t.off)
let reset t = t.cells.(t.off) <- 0
