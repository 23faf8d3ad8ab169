(* The codec lives in wj_util ({!Wj_util.Json}); this alias remains only
   because the benchmark harness under bench/ledger/ still names
   [Wj_daemon.Json]. *)
include Wj_util.Json
