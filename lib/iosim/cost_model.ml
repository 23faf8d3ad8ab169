type t = {
  rows_per_page : int;
  ram_access : float;
  random_io : float;
  seq_io : float;
}

let default = { rows_per_page = 32; ram_access = 2e-7; random_io = 1e-4; seq_io = 1e-5 }

let scan_seconds t ~rows =
  float_of_int ((rows + t.rows_per_page - 1) / t.rows_per_page) *. t.seq_io
