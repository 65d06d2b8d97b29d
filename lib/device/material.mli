(** Gate-stack and semiconductor materials (paper Table II uses SiO2 and
    HfO2 gate dielectrics on Si). *)

type gate_dielectric = SiO2 | HfO2

(** [oxide_capacitance d ~tox] is the areal gate capacitance
    [eps0 * k / tox], F/m^2, with the relative permittivity [k] 3.9 for
    SiO2 and 25 for HfO2 (the high end of the reported 18-25 range, which
    reproduces the paper's threshold voltages best). *)
val oxide_capacitance : gate_dielectric -> tox:float -> float

(** [name d] is ["SiO2"] or ["HfO2"]. *)
val name : gate_dielectric -> string

(** [fermi_potential_p ~na] is the p-substrate Fermi potential
    [VT ln (Na/ni)], V, for acceptor density [na] in 1/m^3. *)
val fermi_potential_p : na:float -> float

(** [depletion_width_max ~na] is the maximum depletion width at strong
    inversion [sqrt (2 eps_si 2 phi_F / (q Na))], m. *)
val depletion_width_max : na:float -> float

(** [bulk_charge_max ~na] is the depletion charge at strong inversion
    [sqrt (2 q eps_si Na 2 phi_F)], C/m^2. *)
val bulk_charge_max : na:float -> float
