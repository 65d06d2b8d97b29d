type gate_dielectric = SiO2 | HfO2

let relative_permittivity = function SiO2 -> 3.9 | HfO2 -> 25.0

let oxide_capacitance d ~tox =
  if tox <= 0.0 then invalid_arg "Material.oxide_capacitance: tox must be > 0";
  Constants.eps0 *. relative_permittivity d /. tox

let name = function SiO2 -> "SiO2" | HfO2 -> "HfO2"

let fermi_potential_p ~na =
  if na <= Constants.ni_si then invalid_arg "Material.fermi_potential_p: Na below ni";
  Constants.thermal_voltage *. log (na /. Constants.ni_si)

let depletion_width_max ~na =
  let phi_f = fermi_potential_p ~na in
  sqrt (2.0 *. Constants.eps_si *. 2.0 *. phi_f /. (Constants.q *. na))

let bulk_charge_max ~na =
  let phi_f = fermi_potential_p ~na in
  sqrt (2.0 *. Constants.q *. Constants.eps_si *. na *. 2.0 *. phi_f)
