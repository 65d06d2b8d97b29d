(** Modified nodal analysis assembly.

    For a guess [x] of the unknown vector (node voltages then voltage-source
    branch currents), [stamp] builds the linearized system [A x' = b] whose
    solution [x'] is the next Newton iterate: linear elements stamp their
    conductances, nonlinear elements (MOSFETs) stamp the companion model
    linearized at [x], capacitors stamp the integration companion supplied
    by the caller (nothing in DC), and sources are evaluated at [time]
    scaled by [source_scale] (for source stepping). *)

type cap_companion = {
  geq : float array;  (** per-capacitor companion conductance, S *)
  ieq : float array;  (** per-capacitor companion current, A *)
}

(** [cap_count netlist] is the number of capacitors (companion array
    length). *)
val cap_count : Netlist.t -> int

(** [voltage x node] reads a node voltage from the unknown vector
    (0 for ground). *)
val voltage : Lattice_numerics.Vec.t -> Netlist.node -> float

(** [cap_voltage netlist x] is the per-capacitor branch voltage vector. *)
val cap_voltages : Netlist.t -> Lattice_numerics.Vec.t -> float array

(** Mutable scratch for one MOSFET's linearized companion model. All
    fields are float — inputs included — so operands cross the call as
    unboxed record fields, keeping hot Newton loops allocation-free. *)
type fet_lin = {
  mutable vd : float;  (** input: drain node voltage *)
  mutable vg : float;  (** input: gate node voltage *)
  mutable vs : float;  (** input: source node voltage *)
  mutable gm : float;
  mutable gds : float;
  mutable ieq : float;
}

val fet_lin_create : unit -> fet_lin

(** [linearize_fet w out m] writes the small-signal companion of the
    source/drain-normalized drain current at ([out.vd], [out.vg],
    [out.vs]) into [out]: [i_dn = gm vgs' + gds vds' + ieq]. The caller
    decides orientation via [vd < vs]. Shared by the dense stamp
    ({!stamp}) and the compiled stamp plan so both assemble identical
    stamps; allocation-free for level-1 models. *)
val linearize_fet :
  Lattice_mosfet.Level1.workspace -> fet_lin -> Lattice_mosfet.Model.t -> unit

(** [stamp netlist ~x ~time ~gmin ~source_scale ~caps] assembles and
    returns [(a, b)] as a dense matrix. Production solves run on the
    compiled {!Stamp_plan}; this dense assembly serves the failure-path
    residual ({!Dcop.residual_report}) and is the tests' oracle for the
    plan. [caps = None] means DC (capacitors open).
    [gmin] is stamped drain-source across every MOSFET; [gshunt] adds a conductance from every node to ground — the continuation
    shunt used by the hardest DC fallbacks. *)
val stamp :
  Netlist.t ->
  x:Lattice_numerics.Vec.t ->
  time:float ->
  gmin:float ->
  gshunt:float ->
  source_scale:float ->
  caps:cap_companion option ->
  Lattice_numerics.Matrix.t * Lattice_numerics.Vec.t
