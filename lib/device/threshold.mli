(** Threshold-voltage models.

    Enhancement devices (square, cross) follow the textbook long-channel MOS
    expression

    {v Vth = phi_ms + 2 phi_F + Qdep_max / Cox + dVnw v}

    with a narrow-width correction [dVnw] for the cross gate whose 200 nm
    arms leave a significant fringing depletion charge per unit width. The
    gate work-function difference [phi_ms] is the single calibrated constant
    (-0.88 V), chosen so the square device lands on the paper's TCAD values
    (0.16 V HfO2 / 1.36 V SiO2); everything else is physics of the Table II
    doping and stack.

    The junctionless nanowire is a depletion device: it conducts at
    [VGS = 0] and turns off at the negative voltage that fully depletes the
    wire,

    {v Vth = phi_ms_jl - q Nd t^2 / (8 eps_si) - q Nd (t/2) / Cox v}

    (double-gate full-depletion form with body thickness [t]). The paper's
    -0.57 V (HfO2) and -4.8 V (SiO2) emerge from the 1/Cox term. *)

(** Effective donor doping of the junctionless wire, 1/m^3. *)
val nd_junctionless : float

(** Calibrated gate work-function difference for the junctionless stack, V. *)
val phi_ms_junctionless : float

(** [vth ~dielectric ~geometry] is the threshold voltage: the
    enhancement-mode value of a square or cross device (the cross with
    its narrow-width correction), the (negative) depletion-mode value of
    the junctionless wire. *)
val vth : dielectric:Material.gate_dielectric -> geometry:Geometry.t -> float

(** [subthreshold_ideality ~dielectric ~geometry] is
    [n = 1 + Cdep/Cox] (clamped to 1 for the fully-depleted junctionless
    wire, which has near-ideal gate coupling). *)
val subthreshold_ideality : dielectric:Material.gate_dielectric -> geometry:Geometry.t -> float
