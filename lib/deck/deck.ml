module Sp = Lattice_spice

type probe = Ast.probe = Vprobe of string | Iprobe of string

type analysis = Ast.analysis =
  | Op
  | Dc_sweep of { source : string; start : float; stop : float; step : float }
  | Tran of { step : float; t_stop : float }
  | Ac of { points_per_decade : int; f_start : float; f_stop : float }

type t = Ast.deck = {
  title : string;
  netlist : Sp.Netlist.t;
  analyses : analysis list;
  prints : probe list;
  ac_source : string option;
}

type error = Ast.error = { line : int; col : int; msg : string }

let error_to_string = Ast.error_to_string
let parse = Parser.parse
let emit = Emitter.emit

let of_netlist ~title ?(analyses = []) ?(prints = []) netlist =
  { title; netlist; analyses; prints; ac_source = None }
