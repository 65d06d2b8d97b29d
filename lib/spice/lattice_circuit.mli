(** Lattice-to-netlist generation (paper Section V).

    An assigned [m x n] lattice becomes a pull-down network of four-terminal
    switches: vertically adjacent switches share their north/south terminal
    nodes, horizontally adjacent ones their east/west nodes; the top plate
    (shared north node of row 0) is pulled up to VDD through a resistor and
    carries the output capacitor, the bottom plate (row m-1's south node) is
    grounded. Because the lattice is a pull-down network, the circuit
    computes the {e complement} of the lattice function (the paper simulates
    the inverse of XOR3).

    Control inputs become gate drivers: a literal [x] connects the switch
    gate to the driver of [x] ([x'] to the complement driver), a constant-1
    site to VDD and a constant-0 site to ground. *)

type config = {
  vdd : float;  (** supply, V (paper: 1.2) *)
  pullup_ohms : float;  (** paper: 500k *)
  types : Fts.mosfet_types;
}

(** The paper's Fig 11 configuration. *)
val default_config : config

(** The output load every built circuit carries: 10 fF, as in the
    paper. Every plate terminal carries {!Fts.default_terminal_cap}. *)
val output_cap : float

(** What {!rebind} and {!with_types} reuse of a built circuit: its
    input drivers' names and where each MOSFET sits. *)
type layout

type t = {
  netlist : Netlist.t;
  output_node : string;  (** top plate, the (inverted) output *)
  input_nodes : string array;  (** driver node of each variable *)
  config : config;
  layout : layout;
}

(** Everything the builder knows about one lattice site just before it
    instantiates the four-terminal switch there: position, instance name,
    the four shared terminal nodes, the resolved gate driver and switch
    models, and the terminal capacitance. Handed to {!site_hook}. *)
type site = {
  row : int;
  col : int;
  name : string;  (** instance prefix, e.g. ["pd.X_1_2"] *)
  north : Netlist.node;
  east : Netlist.node;
  south : Netlist.node;
  west : Netlist.node;
  gate : Netlist.node;
  types : Fts.mosfet_types;  (** after any [types_of_site] override *)
  terminal_cap : float;
}

(** A per-site generation hook, the generalized injection point the
    defect layer ({!Defects}) builds on. The hook runs once per site,
    {e before} the default switch is instantiated; it may add arbitrary
    extra elements (bridges, leaks) and returns [true] to signal that it
    instantiated the site itself — suppressing the default
    {!Fts.instantiate} — or [false] to let the default proceed. *)
type site_hook = Netlist.t -> site -> bool

val site_terminal : site -> [ `North | `East | `South | `West ] -> Netlist.node
(** The node of one of a site's four terminals. *)

(** [build ?config ?types_of_site ?site_hook grid ~stimulus] generates the
    netlist. [stimulus v] is the waveform of variable [v]; its complement
    driver gets [complement config.vdd (stimulus v)] automatically (vdd
    minus the waveform, realized for DC and pulse sources).
    [types_of_site row col] overrides the switch models per site — the
    hook Monte-Carlo process variation uses. [site_hook] intercepts
    per-site instantiation (see {!site_hook}) — the hook circuit-level
    fault injection uses.

    Complement drivers are only added when some site mentions the negated
    literal. *)
val build :
  ?config:config ->
  ?types_of_site:(int -> int -> Fts.mosfet_types) ->
  ?site_hook:site_hook ->
  Lattice_core.Grid.t ->
  stimulus:(int -> Source.t) ->
  t

(** [rebind lc ~stimulus] is [lc] driven by another stimulus: the
    input drivers' waves are replaced through
    {!Netlist.rebind_vsources} and nothing is rebuilt. The result equals
    the [build] (or [build_complementary]) call that produced [lc] run
    with [stimulus] instead — same {!Netlist.structural_digest}, same
    deck text, same DC solution bits — because the builders' structure
    never depends on the stimulus. Its netlist shares [lc]'s node tables
    copy-on-write ({!Netlist.rebind_vsources}): creating a node on
    either one leaves the other alone. How a flow checks one circuit at
    every input state without rebuilding it per state. *)
val rebind : t -> stimulus:(int -> Source.t) -> t

(** [with_types lc ~types_of_site] is [lc] with its switch models
    replaced: for [lc] made by [build ?config grid ~stimulus] without a
    [site_hook], it equals [build ?config ~types_of_site grid ~stimulus]
    — same elements, names and nodes, so the same
    {!Netlist.structural_digest}, deck text and cache keys — and calls
    [types_of_site] once per site, in [build]'s order. Only the MOSFET
    elements are new ({!Netlist.rebind_models}); node tables are shared
    copy-on-write. How a Monte-Carlo run derives each die from its
    nominal circuit. Raises [Invalid_argument] for a circuit built with
    a [site_hook] or by {!build_complementary}. *)
val with_types : t -> types_of_site:(int -> int -> Fts.mosfet_types) -> t

(** [build_complementary ?config ~pull_up ~pull_down ~stimulus ()] builds
    the complementary structure the paper's Section VI-A forecasts: a
    four-terminal lattice as the pull-up network (realizing the complement
    of the pull-down function) instead of the resistor. No static path ever
    connects VDD to ground, so static power drops to leakage, and the
    output rise is driven actively instead of through the 500 k resistor.
    The logic-high level is degraded by roughly one threshold voltage
    because the pass network is n-type — the paper's proposal shares this
    property until a p-type four-terminal switch exists. Built on
    {!default_config}. *)
val build_complementary :
  pull_up:Lattice_core.Grid.t ->
  pull_down:Lattice_core.Grid.t ->
  stimulus:(int -> Source.t) ->
  unit ->
  t

(** [state_stimulus ~vdd m] is the DC stimulus of input state [m]:
    variable [v] sits at [vdd] when bit [v] of [m] is set, else at 0 V. *)
val state_stimulus : vdd:float -> int -> int -> Source.t

(** [exhaustive_stimulus ~vdd ~bit_time] drives variable [v] with
    [Source.bit_clock] so all input combinations appear — the Fig 11
    stimulus. *)
val exhaustive_stimulus : vdd:float -> bit_time:float -> int -> Source.t

(** [complement ~vdd wave] mirrors a waveform across [vdd/2] (complement
    driver). *)
val complement : vdd:float -> Source.t -> Source.t
