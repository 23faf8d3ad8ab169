(** Dependency-free JSON values: the repository's one JSON codec.

    One constructor per JSON shape, a printer and a recursive-descent
    parser.  Every JSON document the program writes is a [t] printed by
    {!to_string}: the daemon's wire format and access log, the metrics
    snapshot ([Wj_obs.Snapshot.to_json]), the Chrome trace events and
    the flight record ([Wj_obs.Recorder.to_json]).  Every reader parses through {!parse},
    the snapshot ([Wj_obs.Snapshot.of_json]) and trace
    ([Wj_obs.Trace.events_of_json]) readers included.

    Numbers keep the int/float split OCaml-side ([Int] prints without a
    decimal point, [Float] with the fewest of 15, 16 or 17 significant
    digits that parse back to the same bits); both parse back from the same JSON number token (a
    token with [.], [e] or [E] becomes [Float]).  Strings are assumed
    UTF-8 and escaped per RFC 8259 ([\uXXXX] escapes decode to raw bytes
    for the BMP's Latin-1 range and are re-escaped on print). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

exception Parse_error of string
(** Malformed input, with a byte offset in the message. *)

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats — JSON has no
    syntax for them — are encoded as the strings ["nan"], ["inf"],
    ["-inf"], which {!to_float} decodes. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

(** {2 Accessors}

    Total lookups for unpacking requests: [None] on a missing field or a
    shape mismatch, so handlers turn malformed bodies into clean 400s. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else. *)

val to_str : t -> string option
val to_int : t -> int option

val to_float : t -> float option
(** [Int]s widen; the strings ["nan"]/["inf"]/["-inf"] decode. *)

val to_bool : t -> bool option
val to_list : t -> t list option
