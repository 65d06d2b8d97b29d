(** Semi-empirical level-3-style MOSFET model.

    The paper's Section VI-A plans "a more accurate model with more
    specific equations, such as level-3 and BSIM, which includes ... gate
    and terminal capacitors and short-channel effect". This model extends
    the level-1 equations with the two dominant short-channel corrections:

    - {e vertical-field mobility degradation}: the gain factor shrinks as
      [beta_eff = beta / (1 + theta (VGS - Vth))];
    - {e velocity saturation}: carriers saturate at [vmax], which caps the
      saturation voltage at [vdsat = Vov Vc / (Vov + Vc)] with the critical
      voltage [Vc = vmax L / mu_eff_normalized], and divides the triode
      current by [1 + VDS / Vc].

    With [theta = 0] and [vmax = infinity] the model reduces exactly to
    level 1. Conductances are obtained by central finite differences; the
    current expression is continuous in both arguments. *)

type params = {
  base : Level1.params;
  theta : float;  (** mobility-degradation coefficient, 1/V; >= 0 *)
  vc : float;  (** velocity-saturation critical voltage [vmax L / mu], V; > 0 *)
}

(** [of_level1 ?theta ?vmax base] derives level-3 parameters;
    [vc = vmax * l / mu] with [mu = 0.05 m^2/Vs]. Defaults:
    [theta = 0.1 /V], [vmax = 1e5 m/s]. *)
val of_level1 : ?theta:float -> ?vmax:float -> Level1.params -> params

(** [ids p ~vgs ~vds] — drain current, [vds >= 0]. *)
val ids : params -> vgs:float -> vds:float -> float

(** [gm p ~vgs ~vds] / [gds p ~vgs ~vds] — finite-difference
    conductances. *)
val gm : params -> vgs:float -> vds:float -> float

val gds : params -> vgs:float -> vds:float -> float
