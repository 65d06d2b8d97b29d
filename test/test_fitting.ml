(* Tests for level-1 parameter extraction. *)

module D = Lattice_device
module Fit = Lattice_fit.Fit

let square_hfo2 = D.Device_model.make ~geometry:D.Geometry.square ~dielectric:D.Material.HfO2

let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

let test_scenarios_shape () =
  let s2 = Fit.scenario2 square_hfo2 ~points:21 in
  Alcotest.(check int) "s2 points" 21 (Array.length s2.Fit.ys);
  match s2.Fit.bias with
  | `Sweep_vds vgs -> check_close "s2 fixes VGS=5" 1e-12 5.0 vgs
  | `Sweep_vgs _ -> Alcotest.fail "scenario 2 sweeps VDS"

let test_extract_recovers_model () =
  (* the generator is level-1 above threshold, so the fit must recover the
     compact model's parameters almost exactly *)
  let e = Fit.extract square_hfo2 in
  Alcotest.(check bool) "converged" true e.Fit.converged;
  check_close "kp" 1e-7 square_hfo2.D.Device_model.kp e.Fit.kp;
  check_close "vth" 1e-3 square_hfo2.D.Device_model.vth e.Fit.vth;
  check_close "lambda" 1e-4 square_hfo2.D.Device_model.lambda e.Fit.lambda;
  Alcotest.(check bool) "r2 ~ 1" true (e.Fit.r_squared > 0.99999)

let test_extract_with_noise () =
  (* multiplicative noise: parameters still recovered within a few % *)
  let rng = Random.State.make [| 99 |] in
  let noisy sc =
    {
      sc with
      Fit.ys =
        Array.map (fun y -> y *. (1.0 +. (0.02 *. (Random.State.float rng 2.0 -. 1.0)))) sc.Fit.ys;
    }
  in
  (* scenario 1: VDS = 5 V, VGS swept over the same 51 points *)
  let s2 = Fit.scenario2 square_hfo2 ~points:51 in
  let drain vgs = (D.Device_model.terminal_currents square_hfo2 ~case:D.Op_case.dsss ~vgs ~vds:5.0).(0) in
  let s1 = { s2 with Fit.name = "scenario 1"; bias = `Sweep_vgs 5.0; ys = Array.map drain s2.Fit.xs } in
  let scenarios = [ noisy s1; noisy s2 ] in
  let e = Fit.extract ~scenarios square_hfo2 in
  let kp = square_hfo2.D.Device_model.kp in
  Alcotest.(check bool) "kp within 5%" true (Float.abs (e.Fit.kp -. kp) /. kp < 0.05);
  Alcotest.(check bool) "vth within 50mV" true
    (Float.abs (e.Fit.vth -. square_hfo2.D.Device_model.vth) < 0.05)

let test_types_a_b () =
  let e = Fit.extract square_hfo2 in
  check_close "type A length" 1e-12 0.35e-6 e.Fit.type_a.Lattice_mosfet.Level1.l;
  check_close "type B length" 1e-12 0.5e-6 e.Fit.type_b.Lattice_mosfet.Level1.l;
  check_close "same kp" 1e-15 e.Fit.type_a.Lattice_mosfet.Level1.kp e.Fit.type_b.Lattice_mosfet.Level1.kp

let test_composite_structure () =
  (* the DSSS composite is 2 type-A + 1 type-B channel *)
  let g = D.Geometry.square in
  let e = { (Fit.extract square_hfo2) with Fit.kp = 1e-5; vth = 0.2; lambda = 0.0 } in
  let at_5v = { (Fit.scenario2 square_hfo2 ~points:2) with Fit.xs = [| 5.0 |] } in
  let i = (Fit.predict e ~geometry:g at_5v).(0) in
  let expect =
    let ids l =
      let p = { Lattice_mosfet.Level1.kp = 1e-5; vth = 0.2; lambda = 0.0; w = g.D.Geometry.channel_width; l } in
      Lattice_mosfet.Level1.ids p ~vgs:5.0 ~vds:5.0
    in
    (2.0 *. ids 0.35e-6) +. ids 0.5e-6
  in
  check_close "composite" 1e-12 expect i

let test_predict_matches_data () =
  let e = Fit.extract square_hfo2 in
  let sc = Fit.scenario2 square_hfo2 ~points:21 in
  let pred = Fit.predict e ~geometry:square_hfo2.D.Device_model.geometry sc in
  let rmse = Lattice_numerics.Stats.rmse sc.Fit.ys pred in
  Alcotest.(check bool) "prediction matches data" true (rmse < 1e-6)

let test_fit_cross_device () =
  (* the extraction also works for the cross geometry *)
  let cross = D.Device_model.make ~geometry:D.Geometry.cross ~dielectric:D.Material.HfO2 in
  let e = Fit.extract cross in
  Alcotest.(check bool) "converged" true e.Fit.converged;
  check_close "cross vth" 5e-3 cross.D.Device_model.vth e.Fit.vth

let () =
  Alcotest.run "fitting"
    [
      ( "fit",
        [
          Alcotest.test_case "scenario construction" `Quick test_scenarios_shape;
          Alcotest.test_case "recovers model parameters" `Quick test_extract_recovers_model;
          Alcotest.test_case "robust to noise" `Quick test_extract_with_noise;
          Alcotest.test_case "type A / type B params" `Quick test_types_a_b;
          Alcotest.test_case "composite structure" `Quick test_composite_structure;
          Alcotest.test_case "predict" `Quick test_predict_matches_data;
          Alcotest.test_case "cross device" `Quick test_fit_cross_device;
        ] );
    ]
