let na_substrate = 1e23 (* 1e17 cm^-3 *)
let nd_junctionless = 3.6e26 (* 3.6e20 cm^-3: degenerate wire, see DESIGN.md *)
let phi_ms_enhancement = -0.88
let phi_ms_junctionless = 0.49

let narrow_width_correction ~cox ~geometry =
  (* fringing depletion charge of a narrow gate: pi * eps_si * 2 phi_F /
     (2 W Cox); negligible for the 700 nm square channel, ~0.1 V (HfO2) for
     the 200 nm cross arms *)
  let phi_f = Material.fermi_potential_p ~na:na_substrate in
  let w = geometry.Geometry.channel_width in
  Float.pi *. Constants.eps_si *. 2.0 *. phi_f /. (2.0 *. w *. cox)

let enhancement ~dielectric ~geometry =
  let cox = Material.oxide_capacitance dielectric ~tox:geometry.Geometry.tox in
  let phi_f = Material.fermi_potential_p ~na:na_substrate in
  let qdep = Material.bulk_charge_max ~na:na_substrate in
  let dv_nw =
    match geometry.Geometry.shape with
    | Geometry.Cross -> narrow_width_correction ~cox ~geometry
    | Geometry.Square | Geometry.Junctionless -> 0.0
  in
  phi_ms_enhancement +. (2.0 *. phi_f) +. (qdep /. cox) +. dv_nw

let junctionless ~dielectric =
  let g = Geometry.junctionless in
  let cox = Material.oxide_capacitance dielectric ~tox:g.Geometry.tox in
  let t = g.Geometry.channel_width in
  let qnd = Constants.q *. nd_junctionless in
  phi_ms_junctionless
  -. (qnd *. t *. t /. (8.0 *. Constants.eps_si))
  -. (qnd *. (t /. 2.0) /. cox)

let vth ~dielectric ~geometry =
  if Geometry.is_depletion geometry then junctionless ~dielectric
  else enhancement ~dielectric ~geometry

let subthreshold_ideality ~dielectric ~geometry =
  let cox = Material.oxide_capacitance dielectric ~tox:geometry.Geometry.tox in
  if Geometry.is_depletion geometry then 1.05
  else begin
    let wd = Material.depletion_width_max ~na:na_substrate in
    let cdep = Constants.eps_si /. wd in
    1.0 +. (cdep /. cox)
  end
