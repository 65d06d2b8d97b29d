(** Compact electrical model of a four-terminal device — the stand-in for
    the paper's 3-D TCAD transport solver.

    Above threshold each (drain, source) terminal pair conducts as a level-1
    MOSFET whose parameters derive from the gate stack ([Kp = mu * Cox]) and
    the pair geometry ([W/L] of adjacent vs opposite pairs). Below threshold
    a textbook exponential subthreshold current with ideality
    [n = 1 + Cdep/Cox] takes over, and a junction-generation floor
    [J0 * junction area] bounds the off current (TCAD reports such a floor
    at VDS = 5 V; [J0] is calibrated once, globally). The junctionless
    wire additionally saturates at the bulk current limit
    [q Nd v_sat A_wire] — a physical ceiling a level-1 expression lacks.

    Figures of merit follow the paper's definitions: [Ion] is the drain
    current at VGS = 5 V, VDS = 5 V in the DSSS case; [Ioff] at VGS = 0 for
    the enhancement devices, and at the sweep minimum VGS = -5 V for the
    depletion-mode junctionless device. *)

type t = {
  geometry : Geometry.t;
  dielectric : Material.gate_dielectric;
  vth : float;
  ideality : float;
  kp : float;  (** A/V^2 *)
  lambda : float;  (** 1/V *)
  floor : float;  (** off-current floor, A *)
  sat_cap : float;  (** bulk saturation ceiling, A; [infinity] if none *)
}

(** [make ~geometry ~dielectric] assembles the model. *)
val make : geometry:Geometry.t -> dielectric:Material.gate_dielectric -> t

(** [terminal_currents m ~case ~vgs ~vds] is the current into each of
    T1..T4 (A): drains biased at [vds], sources grounded, floating
    terminals carry none. Each drain additionally collects the junction
    floor. Gate is at [vgs] relative to the sources. *)
val terminal_currents : t -> case:Op_case.t -> vgs:float -> vds:float -> float array

(** [ion m] / [ioff m] / [on_off_ratio m] — paper figures of merit
    (DSSS, T1). *)
val ion : t -> float

val ioff : t -> float
val on_off_ratio : t -> float
