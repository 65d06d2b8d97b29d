(** The six-transistor four-terminal switch model (paper Fig 9).

    The switch has four D/S terminals at the north, east, south and west
    sides plus a gate; the body is grounded and therefore dropped (paper
    Section V). Adjacent terminal pairs are bridged by Type A MOSFETs
    (effective L = 0.35 um on the square device) and the two opposite pairs
    by Type B MOSFETs (L = 0.5 um) — six transistors, all sharing the gate.
    Each terminal carries a 1 fF grounded capacitor estimated from TCAD. *)

type mosfet_types = {
  type_a : Lattice_mosfet.Model.t;  (** adjacent pairs *)
  type_b : Lattice_mosfet.Model.t;  (** opposite pairs *)
}

(** Parameters extracted from the square / HfO2 device (the values
    [Lattice_fit.Fit.extract] recovers; kept literal here so the circuit
    layer does not depend on the device layer). Level-1 models, as in the
    paper. *)
val default_types : mosfet_types

(** [level3_types ?theta ?vmax ()] promotes the default extraction to the
    level-3 short-channel model (paper Section VI-A's planned refinement);
    see {!Lattice_mosfet.Level3.of_level1} for the defaults. *)
val level3_types : ?theta:float -> ?vmax:float -> unit -> mosfet_types

(** Default terminal capacitance, 1 fF. *)
val default_terminal_cap : float

(** [instantiate ckt ~name ~north ~east ~south ~west ~gate ?terminal_cap
    ?gate_cap types] adds the six MOSFETs and four terminal capacitors.
    Pass [terminal_cap = 0.0] to omit the capacitors. [gate_cap] (default
    0, i.e. the paper's model) is a total gate capacitance, split into four
    gate-to-terminal capacitors — the "more accurate transistor model
    having capacitor models" the paper leaves as future work. *)
val instantiate :
  Netlist.t ->
  name:string ->
  north:Netlist.node ->
  east:Netlist.node ->
  south:Netlist.node ->
  west:Netlist.node ->
  gate:Netlist.node ->
  ?terminal_cap:float ->
  ?gate_cap:float ->
  mosfet_types ->
  unit
