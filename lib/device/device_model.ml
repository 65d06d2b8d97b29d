module Level1 = Lattice_mosfet.Level1

type t = {
  geometry : Geometry.t;
  dielectric : Material.gate_dielectric;
  vth : float;
  ideality : float;
  kp : float;
  lambda : float;
  floor : float;
  sat_cap : float;
}

let j0_floor = 8.6e3

(* effective saturation velocity of the degenerate wire including the
   accumulation-layer contribution (see DESIGN.md calibration notes) *)
let vsat_junctionless = 2.6e5

let make ~geometry ~dielectric =
  let cox = Material.oxide_capacitance dielectric ~tox:geometry.Geometry.tox in
  let vth = Threshold.vth ~dielectric ~geometry in
  let ideality = Threshold.subthreshold_ideality ~dielectric ~geometry in
  let floor = j0_floor *. geometry.Geometry.junction_area in
  if Geometry.is_depletion geometry then begin
    (* conductance-derived gain: the wire conducts G_on = q Nd mu A / L when
       neutral and loses conductance linearly as the gate depletes it, which
       is exactly a level-1 triode slope with beta = G_on / (VFB - Vth) *)
    let g = geometry in
    let a = g.Geometry.wire_cross_section in
    let g_on =
      Constants.q *. Threshold.nd_junctionless *. Mobility.junctionless *. a
      /. g.Geometry.l_adjacent
    in
    let beta = g_on /. (Threshold.phi_ms_junctionless -. vth) in
    (* store beta as kp with W/L = 1 (see pair_params) *)
    let sat_cap = Constants.q *. Threshold.nd_junctionless *. vsat_junctionless *. a in
    { geometry; dielectric; vth; ideality; kp = beta; lambda = 0.02; floor; sat_cap }
  end
  else begin
    let kp = Mobility.enhancement dielectric *. cox in
    { geometry; dielectric; vth; ideality; kp; lambda = 0.05; floor; sat_cap = infinity }
  end

let pair_params m ~opposite =
  let g = m.geometry in
  if Geometry.is_depletion g then
    (* beta folded into kp; W/L = 1 *)
    { Level1.kp = m.kp; vth = m.vth; lambda = m.lambda; w = 1.0; l = 1.0 }
  else
    {
      Level1.kp = m.kp;
      vth = m.vth;
      lambda = m.lambda;
      w = g.Geometry.channel_width;
      l = (if opposite then g.Geometry.l_opposite else g.Geometry.l_adjacent);
    }

let subthreshold_current m ~beta ~vgs ~vds =
  let vt = Constants.thermal_voltage in
  let n = m.ideality in
  let i0 = 2.0 *. n *. beta *. vt *. vt in
  let drive = exp ((vgs -. m.vth) /. (n *. vt)) in
  (* drain-bias factor saturates within a few VT *)
  let dibl = 1.0 -. exp (-.vds /. vt) in
  i0 *. drive *. dibl

let pair_current m ~opposite ~vgs ~vds =
  if vds < 0.0 then invalid_arg "Device_model.pair_current: vds must be >= 0";
  let p = pair_params m ~opposite in
  let beta = Level1.beta p in
  let i =
    if vgs > m.vth then Level1.ids p ~vgs ~vds
    else subthreshold_current m ~beta ~vgs ~vds
  in
  Float.min i m.sat_cap

(* The saturation ceiling is a property of one electrode's wire
   cross-section, so it binds the *total* current of a drain, not each pair
   independently; when it binds, the pair contributions shrink
   proportionally. *)
let terminal_currents m ~case ~vgs ~vds =
  if not (Op_case.is_valid case) then invalid_arg "Device_model: case needs a drain and a source";
  if vds < 0.0 then invalid_arg "Device_model.terminal_currents: vds must be >= 0";
  let out = Array.make 4 0.0 in
  List.iter
    (fun d ->
      let contributions =
        List.filter_map
          (fun (d', s, opposite) ->
            if d' = d then Some (s, pair_current m ~opposite ~vgs ~vds) else None)
          (Op_case.pairs case)
      in
      let total = List.fold_left (fun acc (_, i) -> acc +. i) 0.0 contributions in
      let scale = if total > m.sat_cap then m.sat_cap /. total else 1.0 in
      List.iter
        (fun (s, i) ->
          out.(d) <- out.(d) +. (scale *. i);
          out.(s) <- out.(s) -. (scale *. i))
        contributions)
    (Op_case.drains case);
  (* junction-generation floor collected at each biased drain *)
  let floor_on = Float.min 1.0 (vds /. 0.1) in
  List.iter (fun d -> out.(d) <- out.(d) +. (m.floor *. floor_on)) (Op_case.drains case);
  out

let ion m =
  let i = terminal_currents m ~case:Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  i.(0)

let ioff m =
  let vgs = if Geometry.is_depletion m.geometry then -5.0 else 0.0 in
  let i = terminal_currents m ~case:Op_case.dsss ~vgs ~vds:5.0 in
  i.(0)

let on_off_ratio m = ion m /. ioff m
