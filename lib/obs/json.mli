(** The process's one JSON codec.

    Every JSON text the process writes goes through {!to_string}: the
    serve protocol's requests and responses, the access log, [stats],
    the flight-recorder dumps ({!Ring.dump_jsonl}) and the trace
    exports ({!Export}). The toolchain ships no JSON library, and these
    need very little: scalars, arrays, objects, and a printer whose
    output is a {e deterministic function of the value} — the
    service-layer tests assert byte-identical response payloads across
    daemon restarts, so object key order is preserved exactly as
    constructed and floats print through one fixed, exact format.

    The parser is a strict recursive-descent reader of a single
    document: trailing garbage, unterminated literals, bare control
    characters in strings, numbers with leading zeros, and nesting
    deeper than 64 levels are all rejected with a message carrying
    the byte offset. Numbers without [.], [e] or [E] parse as [Int]
    (falling back to [Float] past [max_int]); everything else numeric
    parses as [Float]. [parse (to_string v) = v] for every value
    {!to_string} accepts, floats bit for bit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order is preserved, duplicates kept *)

exception Parse_error of string
(** Carries ["offset N: <reason>"]. *)

val parse : string -> t
(** Raises {!Parse_error}. *)

val to_string : t -> string
(** One line, no trailing newline. Strings escape the double quote,
    the backslash and control characters (as [\uXXXX] or the short
    forms) and pass every other byte through; floats print in the
    shortest of [%.15g]/[%.17g] that reads back bit for bit, and
    integral ones always carry a [.0] or an exponent so they re-parse
    as [Float]; non-finite floats raise [Invalid_argument] — build
    them with {!float}. *)

val float : float -> t
(** [Float f] for finite [f]; the strings ["inf"], ["-inf"] and
    ["nan"] otherwise (e.g. a defect campaign with no logic-high
    states), so any float can be printed. *)

(** {2 Accessors} — shape-checking helpers for the protocol layer. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] and integral [Float] both yield [n]. *)

val to_float : t -> float option
(** [Float f] or [Int n] (as [float n]). *)

val to_bool : t -> bool option
val to_str : t -> string option
