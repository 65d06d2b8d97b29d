(** Modified nodal analysis: the pieces the compiled {!Stamp_plan}
    and its clients share.

    For a guess [x] of the unknown vector (node voltages then
    voltage-source branch currents), the plan builds the linearized
    system [A x' = b] whose solution [x'] is the next Newton iterate:
    linear elements stamp their conductances, MOSFETs stamp the
    companion model {!linearize_fet} computes at [x], capacitors stamp
    the integration companion supplied by the caller (nothing in DC),
    and sources are evaluated at the solve's time, scaled for source
    stepping. The tests keep a dense assembly of the same system as the
    plan's oracle. *)

type cap_companion = {
  geq : float array;  (** per-capacitor companion conductance, S *)
  ieq : float array;  (** per-capacitor companion current, A *)
}

(** [voltage x node] reads a node voltage from the unknown vector
    (0 for ground). *)
val voltage : Lattice_numerics.Vec.t -> Netlist.node -> float

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
    decides orientation via [vd < vs]. Shared by the compiled stamp
    plan and the tests' dense oracle so both assemble identical stamps;
    allocation-free for level-1 models. *)
val linearize_fet :
  Lattice_mosfet.Level1.workspace -> fet_lin -> Lattice_mosfet.Model.t -> unit
