(** I-V sweep engine reproducing the paper's three TCAD set-ups
    (Section III-B):

    + IDS-VGS curves at VDS = 10 mV,
    + IDS-VGS curves at VDS = 5 V,
    + IDS-VDS curves at VGS = 5 V,

    with the source voltage at 0 V, reported per terminal T1..T4 (current
    magnitudes, as the paper plots them). *)

type curve = {
  label : string;  (** e.g. ["T1"] *)
  xs : float array;  (** swept voltage, V *)
  ys : float array;  (** |terminal current|, A *)
}

type iv_set = {
  model : Device_model.t;
  case : Op_case.t;
  ids_vgs_low : curve list;  (** VDS = 10 mV *)
  ids_vgs_high : curve list;  (** VDS = 5 V *)
  ids_vds : curve list;  (** VGS = 5 V *)
}

(** [standard model] runs the paper's three set-ups in the DSSS case with
    51 points per sweep, from 0 to 5 V. The bias points fan out over
    [engine]'s Domain pool (phase ["iv-sweep"]; without [engine], a fresh
    1-domain one); curves are bit-identical at any domain count. *)
val standard : ?engine:Lattice_engine.Engine.t -> Device_model.t -> iv_set

(** [drain_curve set which] extracts the T1 (drain) curve of one set-up:
    [`Vgs_low], [`Vgs_high] or [`Vds]. *)
val drain_curve : iv_set -> [ `Vgs_low | `Vgs_high | `Vds ] -> curve

(** [threshold_from_sweep curve ~icrit] estimates Vth as the gate voltage
    where the current first crosses [icrit] (constant-current method). *)
val threshold_from_sweep : curve -> icrit:float -> float option
