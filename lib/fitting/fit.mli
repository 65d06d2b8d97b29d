(** Level-1 MOSFET parameter extraction (paper Section IV / Fig 10).

    The paper fits the TCAD data of the square device to the level-1
    equations with the MATLAB Curve Fitting Toolbox, extracting [Kp], [Vth]
    and [lambda], and models the device as six MOSFETs of two types that
    differ only in effective length (Type A 0.35 um for adjacent terminal
    pairs, Type B 0.5 um for opposite pairs).

    Here the two sweep scenarios the paper describes are generated from the
    compact device model in the DSSS case:

    + scenario 1 — 5 V on T1, 0 V on T2..T4, VGS swept 0..5 V;
    + scenario 2 — VGS = 5 V, VDS swept 0..5 V on T1;

    and the drain current is fitted jointly over both sweeps by
    Levenberg-Marquardt against the DSSS composite (two Type A channels and
    one Type B channel in parallel, sharing [Kp], [Vth], [lambda]). *)

type scenario = {
  name : string;
  bias : [ `Sweep_vgs of float  (** fixed VDS *) | `Sweep_vds of float  (** fixed VGS *) ];
  xs : float array;  (** swept voltage, V *)
  ys : float array;  (** T1 drain current, A *)
}

(** [scenario2 model ~points] generates scenario 2's sweep from the
    compact model. *)
val scenario2 : Lattice_device.Device_model.t -> points:int -> scenario

type extraction = {
  kp : float;
  vth : float;
  lambda : float;
  rmse : float;  (** over all fitted samples, A *)
  r_squared : float;
  iterations : int;
  converged : bool;
  type_a : Lattice_mosfet.Level1.params;  (** adjacent pairs, L = 0.35 um *)
  type_b : Lattice_mosfet.Level1.params;  (** opposite pairs, L = 0.5 um *)
}

(** [extract ?scenarios model] runs the joint fit (default scenarios:
    scenario 1 and scenario 2 with 51 points). *)
val extract : ?scenarios:scenario list -> Lattice_device.Device_model.t -> extraction

(** [predict e ~geometry scenario] evaluates the fitted DSSS composite
    drain current (2 x Type A + 1 x Type B) over a scenario's sweep (for
    Fig 10-style overlays). *)
val predict : extraction -> geometry:Lattice_device.Geometry.t -> scenario -> float array
