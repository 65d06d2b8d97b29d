(* Tests for the device-physics substrate: materials, thresholds, the
   compact model, operating cases, sweeps and the 2-D field solver. *)

module D = Lattice_device

let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

(* --- Material ------------------------------------------------------------- *)

let test_permittivity_ordering () =
  Alcotest.(check bool) "HfO2 > SiO2" true
    (D.Material.oxide_capacitance D.Material.HfO2 ~tox:30e-9
     > D.Material.oxide_capacitance D.Material.SiO2 ~tox:30e-9)

let test_oxide_capacitance () =
  let c_sio2 = D.Material.oxide_capacitance D.Material.SiO2 ~tox:30e-9 in
  check_close "Cox SiO2 30nm" 1e-5 1.1510e-3 c_sio2;
  let ratio =
    D.Material.oxide_capacitance D.Material.HfO2 ~tox:30e-9 /. c_sio2
  in
  check_close "HfO2/SiO2 Cox ratio = k ratio" 1e-9 (25.0 /. 3.9) ratio

let test_material_names () =
  Alcotest.(check string) "HfO2" "HfO2" (D.Material.name D.Material.HfO2);
  Alcotest.(check string) "SiO2" "SiO2" (D.Material.name D.Material.SiO2)

let test_fermi_potential () =
  (* phi_F = VT ln(1e17/1.5e10) ~ 0.407 V *)
  check_close "phi_F" 5e-3 0.407 (D.Material.fermi_potential_p ~na:1e23)

(* --- Geometry -------------------------------------------------------------- *)

let test_geometry_table2 () =
  let s = D.Geometry.square in
  check_close "square footprint" 1e-12 2400e-9 s.D.Geometry.device_x;
  check_close "square W" 1e-12 700e-9 s.D.Geometry.channel_width;
  check_close "type A L" 1e-12 0.35e-6 s.D.Geometry.l_adjacent;
  check_close "type B L" 1e-12 0.5e-6 s.D.Geometry.l_opposite;
  let c = D.Geometry.cross in
  check_close "cross W = arm width" 1e-12 200e-9 c.D.Geometry.channel_width;
  let j = D.Geometry.junctionless in
  check_close "wire tox" 1e-12 3e-9 j.D.Geometry.tox;
  Alcotest.(check bool) "junctionless is depletion" true (D.Geometry.is_depletion j);
  Alcotest.(check bool) "square is enhancement" false (D.Geometry.is_depletion s)

let test_geometry_symmetry () =
  (* the relative spread of the opposite-pair and adjacent-pair channel
     lengths: the cross device is the more symmetric one *)
  let spread g = (g.D.Geometry.l_opposite -. g.D.Geometry.l_adjacent) /. g.D.Geometry.l_adjacent in
  Alcotest.(check bool) "cross more symmetric than square" true
    (spread D.Geometry.cross < spread D.Geometry.square)

let test_shape_names () =
  Alcotest.(check (list string)) "names" [ "square"; "cross"; "junctionless" ]
    (List.map D.Geometry.shape_name [ D.Geometry.Square; D.Geometry.Cross; D.Geometry.Junctionless ])

(* --- Threshold ------------------------------------------------------------- *)

let paper_tolerance_v = 0.25

let test_vth_square () =
  let hf = D.Threshold.vth ~dielectric:D.Material.HfO2 ~geometry:D.Geometry.square in
  let si = D.Threshold.vth ~dielectric:D.Material.SiO2 ~geometry:D.Geometry.square in
  check_close "HfO2 ~0.16" paper_tolerance_v 0.16 hf;
  check_close "SiO2 ~1.36" paper_tolerance_v 1.36 si;
  Alcotest.(check bool) "high-k lowers Vth" true (hf < si)

let test_vth_cross_narrow_width () =
  let sq = D.Threshold.vth ~dielectric:D.Material.HfO2 ~geometry:D.Geometry.square in
  let cr = D.Threshold.vth ~dielectric:D.Material.HfO2 ~geometry:D.Geometry.cross in
  Alcotest.(check bool) "narrow cross raises Vth" true (cr > sq);
  check_close "cross HfO2 ~0.27" paper_tolerance_v 0.27 cr

let test_vth_junctionless () =
  let hf = D.Threshold.vth ~dielectric:D.Material.HfO2 ~geometry:D.Geometry.junctionless in
  let si = D.Threshold.vth ~dielectric:D.Material.SiO2 ~geometry:D.Geometry.junctionless in
  check_close "jl HfO2 ~-0.57" 0.1 (-0.57) hf;
  check_close "jl SiO2 ~-4.8" 0.3 (-4.8) si;
  Alcotest.(check bool) "both negative" true (hf < 0.0 && si < 0.0)

let test_vth_dispatch () =
  (* the depletion-mode junctionless wire turns on below 0 V, the
     enhancement-mode square above *)
  let vth geometry = D.Threshold.vth ~dielectric:D.Material.HfO2 ~geometry in
  Alcotest.(check bool) "junctionless is depletion-mode" true (vth D.Geometry.junctionless < 0.0);
  Alcotest.(check bool) "square is enhancement-mode" true (vth D.Geometry.square > 0.0)

let test_ideality () =
  let n_hf =
    D.Threshold.subthreshold_ideality ~dielectric:D.Material.HfO2 ~geometry:D.Geometry.square
  in
  let n_si =
    D.Threshold.subthreshold_ideality ~dielectric:D.Material.SiO2 ~geometry:D.Geometry.square
  in
  Alcotest.(check bool) "n > 1" true (n_hf > 1.0);
  Alcotest.(check bool) "thicker EOT worsens slope" true (n_si > n_hf)

(* --- Op_case ---------------------------------------------------------------- *)

let test_op_case_parse () =
  let c = D.Op_case.of_string "DSSS" in
  Alcotest.(check (list int)) "drains" [ 0 ] (D.Op_case.drains c);
  Alcotest.(check (list int)) "sources" [ 1; 2; 3 ] (D.Op_case.sources c);
  Alcotest.(check string) "roundtrip" "DSSS" (D.Op_case.to_string c)

let test_op_case_all () =
  Alcotest.(check int) "16 cases" 16 (List.length D.Op_case.all);
  List.iter
    (fun c ->
      Alcotest.(check bool) (D.Op_case.to_string c ^ " valid") true (D.Op_case.is_valid c))
    D.Op_case.all

let test_op_case_pairs () =
  let c = D.Op_case.of_string "DSSS" in
  let pairs = D.Op_case.pairs c in
  Alcotest.(check int) "3 pairs" 3 (List.length pairs);
  (* T1 (north) and T3 (south) are opposite *)
  Alcotest.(check bool) "T1-T3 opposite" true
    (List.exists (fun (d, s, opp) -> d = 0 && s = 2 && opp) pairs);
  Alcotest.(check bool) "T1-T2 adjacent" true
    (List.exists (fun (d, s, opp) -> d = 0 && s = 1 && not opp) pairs)

let test_op_case_invalid () =
  Alcotest.(check bool) "FFFF invalid" false (D.Op_case.is_valid (D.Op_case.of_string "FFFF"));
  Alcotest.(check bool) "DDDD invalid" false (D.Op_case.is_valid (D.Op_case.of_string "DDDD"));
  Alcotest.(check bool) "bad char" true
    (match D.Op_case.of_string "DXSS" with exception Invalid_argument _ -> true | _ -> false)

(* --- Device_model ------------------------------------------------------------ *)

let model shape dielectric =
  let geometry =
    match shape with
    | D.Geometry.Square -> D.Geometry.square
    | D.Geometry.Cross -> D.Geometry.cross
    | D.Geometry.Junctionless -> D.Geometry.junctionless
  in
  D.Device_model.make ~geometry ~dielectric

let within_order msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3g within 10x of %.3g" msg actual expected)
    true
    (actual > expected /. 10.0 && actual < expected *. 10.0)

let test_figures_of_merit () =
  (* paper Section III-B, within an order of magnitude *)
  within_order "square HfO2 on/off" 1e6 (D.Device_model.on_off_ratio (model D.Geometry.Square D.Material.HfO2));
  within_order "square SiO2 on/off" 1e5 (D.Device_model.on_off_ratio (model D.Geometry.Square D.Material.SiO2));
  within_order "cross HfO2 on/off" 1e6 (D.Device_model.on_off_ratio (model D.Geometry.Cross D.Material.HfO2));
  within_order "cross SiO2 on/off" 1e4 (D.Device_model.on_off_ratio (model D.Geometry.Cross D.Material.SiO2));
  within_order "jl HfO2 on/off" 1e8 (D.Device_model.on_off_ratio (model D.Geometry.Junctionless D.Material.HfO2));
  within_order "jl SiO2 on/off" 1e7 (D.Device_model.on_off_ratio (model D.Geometry.Junctionless D.Material.SiO2))

let test_ion_magnitudes () =
  within_order "square HfO2 Ion ~1.2mA" 1.2e-3 (D.Device_model.ion (model D.Geometry.Square D.Material.HfO2));
  within_order "cross HfO2 Ion ~0.4mA" 4e-4 (D.Device_model.ion (model D.Geometry.Cross D.Material.HfO2));
  within_order "jl HfO2 Ion ~60uA" 6e-5 (D.Device_model.ion (model D.Geometry.Junctionless D.Material.HfO2))

let test_current_ordering () =
  (* square carries more than cross (wider channels) for the same stack *)
  Alcotest.(check bool) "square > cross" true
    (D.Device_model.ion (model D.Geometry.Square D.Material.HfO2)
     > D.Device_model.ion (model D.Geometry.Cross D.Material.HfO2))

let test_terminal_currents_kcl () =
  (* terminal currents must sum to the injected floor only *)
  let m = model D.Geometry.Square D.Material.HfO2 in
  List.iter
    (fun case_name ->
      let case = D.Op_case.of_string case_name in
      let i = D.Device_model.terminal_currents m ~case ~vgs:5.0 ~vds:5.0 in
      let total = Array.fold_left ( +. ) 0.0 i in
      let floor_total = m.D.Device_model.floor *. float_of_int (List.length (D.Op_case.drains case)) in
      check_close (case_name ^ " KCL") 1e-12 floor_total total)
    [ "DSSS"; "DSFF"; "DDSS"; "DSDS"; "DDDS" ]

let test_terminal_currents_symmetry () =
  (* in DSDS the two drains see identical environments *)
  let m = model D.Geometry.Square D.Material.HfO2 in
  let i = D.Device_model.terminal_currents m ~case:(D.Op_case.of_string "DSDS") ~vgs:5.0 ~vds:5.0 in
  check_close "drain symmetry" 1e-15 i.(0) i.(2);
  check_close "source symmetry" 1e-15 i.(1) i.(3)

let test_floating_carries_nothing () =
  let m = model D.Geometry.Square D.Material.HfO2 in
  let i = D.Device_model.terminal_currents m ~case:(D.Op_case.of_string "DSFF") ~vgs:5.0 ~vds:5.0 in
  check_close "T3 floats" 0.0 0.0 i.(2);
  check_close "T4 floats" 0.0 0.0 i.(3)

let test_junctionless_cap () =
  (* total drain current of the wire saturates at the bulk ceiling *)
  let m = model D.Geometry.Junctionless D.Material.HfO2 in
  let i = D.Device_model.terminal_currents m ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  Alcotest.(check bool) "capped" true (i.(0) <= m.D.Device_model.sat_cap +. m.D.Device_model.floor +. 1e-18)

let test_subthreshold_continuity () =
  (* no large jump across vth *)
  let m = model D.Geometry.Square D.Material.HfO2 in
  let drain vgs = (D.Device_model.terminal_currents m ~case:D.Op_case.dsss ~vgs ~vds:5.0).(0) in
  let below = drain (m.D.Device_model.vth -. 1e-5) in
  let above = drain (m.D.Device_model.vth +. 1e-5) in
  Alcotest.(check bool) "same order across vth" true
    (below > 0.0 && above >= 0.0 && below < 1e-5)

(* --- Sweep ------------------------------------------------------------------- *)

let test_sweep_monotone () =
  let m = model D.Geometry.Square D.Material.HfO2 in
  match (D.Sweep.standard m).D.Sweep.ids_vgs_high with
  | t1 :: _ ->
    let ys = t1.D.Sweep.ys in
    for i = 1 to Array.length ys - 1 do
      if ys.(i) < ys.(i - 1) -. 1e-15 then Alcotest.fail "Ids(Vgs) not monotone"
    done
  | [] -> Alcotest.fail "no curves"

let test_sweep_labels () =
  let m = model D.Geometry.Square D.Material.HfO2 in
  let set = D.Sweep.standard m in
  Alcotest.(check (list string)) "labels" [ "T1"; "T2"; "T3"; "T4" ]
    (List.map (fun c -> c.D.Sweep.label) set.D.Sweep.ids_vds);
  let t1 = D.Sweep.drain_curve set `Vgs_high in
  Alcotest.(check string) "drain curve" "T1" t1.D.Sweep.label

let test_sweep_source_split () =
  (* in DSSS each source carries roughly a third of the drain current *)
  let m = model D.Geometry.Cross D.Material.HfO2 in
  let i = D.Device_model.terminal_currents m ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  let drain = i.(0) in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "T%d share" (s + 1))
        true
        (Float.abs i.(s) > drain /. 5.0 && Float.abs i.(s) < drain /. 2.0))
    [ 1; 2; 3 ]

let test_junctionless_flat_saturation () =
  (* Fig 7b/c: the junctionless drain current pins at the bulk ceiling over
     most of the sweep *)
  let m = model D.Geometry.Junctionless D.Material.HfO2 in
  (* the standard VGS = 5 V sweep: 51 points from 0 to 5 V *)
  match (D.Sweep.standard m).D.Sweep.ids_vds with
  | t1 :: _ ->
    let ys = t1.D.Sweep.ys in
    let last = ys.(50) in
    let at_1v = ys.(10) in
    Alcotest.(check bool)
      (Printf.sprintf "flat: I(1V)=%.3g ~ I(5V)=%.3g" at_1v last)
      true
      (Float.abs (at_1v -. last) /. last < 0.05)
  | [] -> Alcotest.fail "no curves"

let test_enhancement_saturation_slope () =
  (* the enhancement device keeps a lambda slope in saturation *)
  let m = model D.Geometry.Square D.Material.HfO2 in
  let i4 = (D.Device_model.terminal_currents m ~case:D.Op_case.dsss ~vgs:5.0 ~vds:4.0).(0) in
  let i5 = (D.Device_model.terminal_currents m ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0).(0) in
  Alcotest.(check bool) "lambda slope" true (i5 > i4)

let test_threshold_from_sweep () =
  let m = model D.Geometry.Square D.Material.SiO2 in
  let set = D.Sweep.standard m in
  let t1 = D.Sweep.drain_curve set `Vgs_low in
  match D.Sweep.threshold_from_sweep t1 ~icrit:(0.05 *. Array.fold_left Float.max 0.0 t1.D.Sweep.ys) with
  | Some vth_cc ->
    (* constant-current Vth lands within ~0.6 V of the electrostatic one *)
    Alcotest.(check bool) "near model vth" true (Float.abs (vth_cc -. 1.36) < 0.6)
  | None -> Alcotest.fail "no threshold crossing"

(* --- Field2d ------------------------------------------------------------------ *)

let test_field_converges () =
  List.iter
    (fun shape ->
      let v = D.Presets.find ~shape ~dielectric:D.Material.HfO2 in
      let r = D.Field2d.solve ~n:24 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
      Alcotest.(check bool) (D.Geometry.shape_name shape ^ " converged") true r.D.Field2d.converged)
    [ D.Geometry.Square; D.Geometry.Cross; D.Geometry.Junctionless ]

let test_field_kcl () =
  (* terminal currents sum to ~0 (current conservation) *)
  let v = D.Presets.find ~shape:D.Geometry.Square ~dielectric:D.Material.HfO2 in
  let r = D.Field2d.solve ~n:32 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  let total = Array.fold_left ( +. ) 0.0 r.D.Field2d.terminal_currents in
  let scale = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 r.D.Field2d.terminal_currents in
  Alcotest.(check bool) "KCL" true (Float.abs total < 1e-3 *. scale)

let test_field_drain_sign () =
  let v = D.Presets.find ~shape:D.Geometry.Square ~dielectric:D.Material.HfO2 in
  let r = D.Field2d.solve ~n:32 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  Alcotest.(check bool) "drain sources current" true (r.D.Field2d.terminal_currents.(0) < 0.0);
  Alcotest.(check bool) "T2 sinks current" true (r.D.Field2d.terminal_currents.(1) > 0.0)

let test_field_cross_uniformity () =
  let solve shape =
    let v = D.Presets.find ~shape ~dielectric:D.Material.HfO2 in
    D.Field2d.solve ~n:48 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0
  in
  let sq = solve D.Geometry.Square and cr = solve D.Geometry.Cross in
  Alcotest.(check bool) "cross splits current more evenly" true
    (cr.D.Field2d.source_share_cv < sq.D.Field2d.source_share_cv)

let test_field_symmetric_case () =
  (* east and west sources are mirror images in DSSS *)
  let v = D.Presets.find ~shape:D.Geometry.Cross ~dielectric:D.Material.HfO2 in
  let r = D.Field2d.solve ~n:32 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  let e = Float.abs r.D.Field2d.terminal_currents.(1)
  and w = Float.abs r.D.Field2d.terminal_currents.(3) in
  Alcotest.(check bool) "E/W mirror" true (Float.abs (e -. w) < 1e-6 *. Float.max e w)

let test_field_gate_control () =
  (* higher gate bias, more current *)
  let v = D.Presets.find ~shape:D.Geometry.Square ~dielectric:D.Material.HfO2 in
  let lo = D.Field2d.solve ~n:24 v ~case:D.Op_case.dsss ~vgs:1.0 ~vds:5.0 in
  let hi = D.Field2d.solve ~n:24 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  Alcotest.(check bool) "gate modulates current" true
    (Float.abs hi.D.Field2d.terminal_currents.(0) > Float.abs lo.D.Field2d.terminal_currents.(0))

let test_field_solver_dispatch () =
  let v = D.Presets.find ~shape:D.Geometry.Square ~dielectric:D.Material.HfO2 in
  let small = D.Field2d.solve ~n:24 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  Alcotest.(check bool) "small grids use CG" true (small.D.Field2d.solver_used = D.Field2d.Cg);
  Alcotest.(check int) "no V-cycles on the CG path" 0 small.D.Field2d.v_cycles;
  let large = D.Field2d.solve ~n:32 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  Alcotest.(check bool) "n >= 32 uses multigrid" true
    (large.D.Field2d.solver_used = D.Field2d.Multigrid);
  Alcotest.(check bool) "V-cycles counted" true (large.D.Field2d.v_cycles > 0);
  Alcotest.(check bool) "multigrid converged" true large.D.Field2d.converged

let test_field_mg_cg_parity () =
  (* the two paths solve the same discrete system: at a tight tolerance
     the fields must agree to well below physical accuracy. The potential
     comparison is restricted to conducting cells (sigma > 1e-3): in the
     near-insulating background the 9-decade conductivity contrast
     amplifies the residual and no iterative solver pins those potentials
     to 1e-8. *)
  List.iter
    (fun shape ->
      let v = D.Presets.find ~shape ~dielectric:D.Material.HfO2 in
      let name = D.Geometry.shape_name shape in
      let cg =
        D.Field2d.solve ~n:48 ~solver:D.Field2d.Cg ~tol:1e-12 v ~case:D.Op_case.dsss
          ~vgs:5.0 ~vds:5.0
      in
      let mg =
        D.Field2d.solve ~n:48 ~solver:D.Field2d.Multigrid ~tol:1e-12 v ~case:D.Op_case.dsss
          ~vgs:5.0 ~vds:5.0
      in
      Alcotest.(check bool) (name ^ " cg converged") true cg.D.Field2d.converged;
      Alcotest.(check bool) (name ^ " mg converged") true mg.D.Field2d.converged;
      let dv = ref 0.0 in
      Array.iteri
        (fun i s ->
          if s > 1e-3 then
            dv :=
              Float.max !dv
                (Float.abs (cg.D.Field2d.potential.(i) -. mg.D.Field2d.potential.(i))))
        cg.D.Field2d.sigma;
      Alcotest.(check bool)
        (Printf.sprintf "%s potential parity on conducting cells (got %.3e)" name !dv)
        true (!dv < 1e-8);
      let i_scale =
        Array.fold_left
          (fun a x -> Float.max a (Float.abs x))
          0.0 cg.D.Field2d.terminal_currents
      in
      Array.iteri
        (fun k i_cg ->
          let d = Float.abs (i_cg -. mg.D.Field2d.terminal_currents.(k)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s terminal %d parity (got %.3e rel)" name k (d /. i_scale))
            true
            (d < 1e-6 *. i_scale))
        cg.D.Field2d.terminal_currents;
      check_close (name ^ " channel CV parity") 1e-6 cg.D.Field2d.channel_cv
        mg.D.Field2d.channel_cv)
    [ D.Geometry.Square; D.Geometry.Cross; D.Geometry.Junctionless ]

let test_field_ascii () =
  let v = D.Presets.find ~shape:D.Geometry.Cross ~dielectric:D.Material.HfO2 in
  let r = D.Field2d.solve ~n:24 v ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0 in
  let s = D.Field2d.ascii r ~width:16 in
  Alcotest.(check bool) "non-empty render" true (String.length s > 16 * 16)

(* --- Presets ------------------------------------------------------------------ *)

let test_presets () =
  Alcotest.(check int) "six variants" 6 (List.length D.Presets.all);
  let v = D.Presets.find ~shape:D.Geometry.Cross ~dielectric:D.Material.SiO2 in
  Alcotest.(check string) "name" "cross/SiO2" (D.Presets.variant_name v);
  let t2 = D.Presets.render_table2 () in
  Alcotest.(check bool) "table II mentions 2400" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains t2 "2400")

let () =
  Alcotest.run "device"
    [
      ( "material",
        [
          Alcotest.test_case "permittivity ordering" `Quick test_permittivity_ordering;
          Alcotest.test_case "oxide capacitance" `Quick test_oxide_capacitance;
          Alcotest.test_case "names" `Quick test_material_names;
          Alcotest.test_case "fermi potential" `Quick test_fermi_potential;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "Table II dimensions" `Quick test_geometry_table2;
          Alcotest.test_case "cross symmetry" `Quick test_geometry_symmetry;
          Alcotest.test_case "shape names" `Quick test_shape_names;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "square Vth vs paper" `Quick test_vth_square;
          Alcotest.test_case "cross narrow-width shift" `Quick test_vth_cross_narrow_width;
          Alcotest.test_case "junctionless Vth vs paper" `Quick test_vth_junctionless;
          Alcotest.test_case "dispatch" `Quick test_vth_dispatch;
          Alcotest.test_case "subthreshold ideality" `Quick test_ideality;
        ] );
      ( "op_case",
        [
          Alcotest.test_case "parse" `Quick test_op_case_parse;
          Alcotest.test_case "all 16" `Quick test_op_case_all;
          Alcotest.test_case "pairs" `Quick test_op_case_pairs;
          Alcotest.test_case "invalid" `Quick test_op_case_invalid;
        ] );
      ( "device_model",
        [
          Alcotest.test_case "on/off ratios vs paper" `Quick test_figures_of_merit;
          Alcotest.test_case "Ion magnitudes vs paper" `Quick test_ion_magnitudes;
          Alcotest.test_case "square > cross current" `Quick test_current_ordering;
          Alcotest.test_case "KCL over cases" `Quick test_terminal_currents_kcl;
          Alcotest.test_case "DSDS symmetry" `Quick test_terminal_currents_symmetry;
          Alcotest.test_case "floating terminals" `Quick test_floating_carries_nothing;
          Alcotest.test_case "junctionless ceiling" `Quick test_junctionless_cap;
          Alcotest.test_case "continuity near vth" `Quick test_subthreshold_continuity;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "monotone in vgs" `Quick test_sweep_monotone;
          Alcotest.test_case "labels" `Quick test_sweep_labels;
          Alcotest.test_case "DSSS source split" `Quick test_sweep_source_split;
          Alcotest.test_case "junctionless saturation ceiling" `Quick
            test_junctionless_flat_saturation;
          Alcotest.test_case "enhancement lambda slope" `Quick test_enhancement_saturation_slope;
          Alcotest.test_case "constant-current Vth" `Quick test_threshold_from_sweep;
        ] );
      ( "field2d",
        [
          Alcotest.test_case "convergence" `Quick test_field_converges;
          Alcotest.test_case "KCL" `Quick test_field_kcl;
          Alcotest.test_case "drain sign" `Quick test_field_drain_sign;
          Alcotest.test_case "cross uniformity" `Slow test_field_cross_uniformity;
          Alcotest.test_case "mirror symmetry" `Quick test_field_symmetric_case;
          Alcotest.test_case "gate control" `Quick test_field_gate_control;
          Alcotest.test_case "solver dispatch" `Quick test_field_solver_dispatch;
          Alcotest.test_case "MG/CG parity" `Slow test_field_mg_cg_parity;
          Alcotest.test_case "ascii render" `Quick test_field_ascii;
        ] );
      ( "presets", [ Alcotest.test_case "variants and Table II" `Quick test_presets ] );
    ]
