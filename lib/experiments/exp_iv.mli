(** Experiments F5/F6/F7 — paper Figs 5, 6, 7 and the Section III-B text:
    I-V characteristics of the square, cross and junctionless devices with
    HfO2 and SiO2 gates in the DSSS case, with threshold voltage and on/off
    ratio figures of merit. *)

(** [report shape] is the figure-level report (Fig 5 = square, Fig 6 =
    cross, Fig 7 = junctionless) covering both dielectrics — threshold
    voltage, on/off ratio and the peak currents read off the paper's HfO2
    figures — with sampled HfO2 curves in the body. With [engine], the
    I-V bias points fan out over the engine's Domain pool. *)
val report : ?engine:Lattice_engine.Engine.t -> Lattice_device.Geometry.shape -> Report.t
