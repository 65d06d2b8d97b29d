(** SPICE deck interop facade: parse deck text to an elaborated
    {!Lattice_spice.Netlist.t} plus analyses, and emit canonical deck
    text back. See {!Parser} for the accepted grammar subset and
    {!Emitter} for the canonical form and its roundtrip guarantees;
    {!Runner} executes a parsed deck's analyses through the engine. *)

type probe = Ast.probe = Vprobe of string | Iprobe of string

type analysis = Ast.analysis =
  | Op
  | Dc_sweep of { source : string; start : float; stop : float; step : float }
  | Tran of { step : float; t_stop : float }
  | Ac of { points_per_decade : int; f_start : float; f_stop : float }

type t = Ast.deck = {
  title : string;
  netlist : Lattice_spice.Netlist.t;
  analyses : analysis list;
  prints : probe list;
  ac_source : string option;
}

type error = Ast.error = { line : int; col : int; msg : string }

(** [error_to_string ?file e] renders ["file:line:col: msg"]. *)
val error_to_string : ?file:string -> error -> string

(** [parse src] — see {!Parser.parse}. Never raises. *)
val parse : string -> (t, error) result

(** [emit d] — canonical deck text, see {!Emitter.emit}. *)
val emit : t -> string

(** [of_netlist ~title netlist] wraps a programmatically built circuit
    as a deck ready for {!emit} — the [ftl export] path. *)
val of_netlist :
  title:string ->
  ?analyses:analysis list ->
  ?prints:probe list ->
  Lattice_spice.Netlist.t ->
  t
