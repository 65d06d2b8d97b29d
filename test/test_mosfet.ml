(* Tests for the level-1 MOSFET equations. *)

module L1 = Lattice_mosfet.Level1

let p = { L1.kp = 2e-5; vth = 0.5; lambda = 0.02; w = 700e-9; l = 350e-9 }

let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

let test_regions () =
  (* the branch each operating point takes: no current at or below vth,
     the triode expression up to vds = vgs - vth, saturation beyond *)
  let exact msg expected actual = Alcotest.(check (float 0.0)) msg expected actual in
  let triode ~vgs ~vds =
    let vov = vgs -. p.L1.vth in
    L1.beta p *. ((vov *. vds) -. (0.5 *. vds *. vds)) *. (1.0 +. (p.L1.lambda *. vds))
  in
  let saturation ~vgs ~vds =
    let vov = vgs -. p.L1.vth in
    0.5 *. L1.beta p *. vov *. vov *. (1.0 +. (p.L1.lambda *. vds))
  in
  exact "cutoff" 0.0 (L1.ids p ~vgs:0.3 ~vds:1.0);
  exact "cutoff at vth" 0.0 (L1.ids p ~vgs:0.5 ~vds:1.0);
  exact "triode" (triode ~vgs:2.0 ~vds:1.0) (L1.ids p ~vgs:2.0 ~vds:1.0);
  exact "saturation" (saturation ~vgs:1.0 ~vds:1.0) (L1.ids p ~vgs:1.0 ~vds:1.0);
  exact "boundary is triode" (triode ~vgs:1.5 ~vds:1.0) (L1.ids p ~vgs:1.5 ~vds:1.0)

let test_cutoff_zero () =
  check_close "no current below vth" 0.0 0.0 (L1.ids p ~vgs:0.4 ~vds:3.0)

let test_known_values () =
  (* beta = kp W/L = 2e-5 * 2 = 4e-5 *)
  check_close "beta" 1e-12 4e-5 (L1.beta p);
  (* saturation: 0.5 * beta * vov^2 * (1 + lambda vds) *)
  let vgs = 1.5 and vds = 2.0 in
  let expected = 0.5 *. 4e-5 *. 1.0 *. (1.0 +. 0.04) in
  check_close "sat current" 1e-12 expected (L1.ids p ~vgs ~vds);
  (* triode at vds = 0.5, vov = 1 *)
  let expected_triode = 4e-5 *. ((1.0 *. 0.5) -. 0.125) *. 1.01 in
  check_close "triode current" 1e-12 expected_triode (L1.ids p ~vgs:1.5 ~vds:0.5)

let test_continuity_at_vdsat () =
  (* triode and saturation formulas agree at vds = vov *)
  let vgs = 2.1 in
  let vov = vgs -. p.L1.vth in
  let below = L1.ids p ~vgs ~vds:(vov -. 1e-9) in
  let above = L1.ids p ~vgs ~vds:(vov +. 1e-9) in
  check_close "continuity" 1e-10 below above

let test_monotonicity () =
  (* ids non-decreasing in vgs and in vds *)
  let prev = ref (-1.0) in
  for i = 0 to 50 do
    let vgs = float_of_int i /. 10.0 in
    let ids = L1.ids p ~vgs ~vds:5.0 in
    if ids < !prev -. 1e-15 then Alcotest.failf "not monotone in vgs at %.2f" vgs;
    prev := ids
  done;
  prev := -1.0;
  for i = 0 to 50 do
    let vds = float_of_int i /. 10.0 in
    let ids = L1.ids p ~vgs:3.0 ~vds in
    if ids < !prev -. 1e-15 then Alcotest.failf "not monotone in vds at %.2f" vds;
    prev := ids
  done

(* the current a level-1 transistor draws into its drain node with the
   three terminals held at [vg], [vd] and [vs] by voltage sources: a
   circuit DC solve, whose stamp swaps the roles of drain and source
   when vd < vs *)
let drain_current ~vg ~vd ~vs =
  let module N = Lattice_spice.Netlist in
  let net = N.create () in
  let g = N.node net "g" and d = N.node net "d" and s = N.node net "s" in
  N.vsource net "VG" g N.ground (Lattice_spice.Source.Dc vg);
  N.vsource net "VD" d N.ground (Lattice_spice.Source.Dc vd);
  N.vsource net "VS" s N.ground (Lattice_spice.Source.Dc vs);
  N.mosfet_model net "M1" ~drain:d ~gate:g ~source:s (Lattice_mosfet.Model.L1 p);
  let x = Lattice_spice.Dcop.solve net in
  (* VD's branch current flows into its + terminal; the drain draws it out *)
  -.x.(N.vsource_row net 1)

let test_ids_signed_antisymmetry () =
  (* swapping the drain and source voltages negates the current *)
  List.iter
    (fun (vg, vd, vs) ->
      let fwd = drain_current ~vg ~vd ~vs in
      let rev = drain_current ~vg ~vd:vs ~vs:vd in
      check_close (Printf.sprintf "antisym %g %g %g" vg vd vs) 1e-15 fwd (-.rev))
    [ (2.0, 1.0, 0.0); (2.0, 0.0, 1.0); (1.0, 0.3, 0.7); (3.0, 2.0, 2.0) ]

let test_ids_signed_source_reference () =
  (* with vd < vs the gate drive references the lower terminal:
     vgs = 1.0 - 0.0 = 1.0 > vth, so the device conducts out of the drain *)
  Alcotest.(check bool) "reverse conduction" true (drain_current ~vg:1.0 ~vd:0.0 ~vs:5.0 < -1e-9)

let numeric_derivative f x =
  let h = 1e-6 in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

(* gm and gds as the circuit engine reads them, from [L1.linearize] *)
let lin p ~vgs ~vds =
  let w = L1.workspace_create () in
  w.L1.w_vgs <- vgs;
  w.L1.w_vds <- vds;
  L1.linearize w p;
  w

let test_gm_matches_numeric () =
  List.iter
    (fun (vgs, vds) ->
      let analytic = (lin p ~vgs ~vds).L1.w_gm in
      let numeric = numeric_derivative (fun vgs -> L1.ids p ~vgs ~vds) vgs in
      check_close (Printf.sprintf "gm at %g %g" vgs vds) 1e-9 numeric analytic)
    [ (1.5, 0.5); (1.5, 3.0); (2.5, 1.0); (3.0, 0.2) ]

let test_gds_matches_numeric () =
  List.iter
    (fun (vgs, vds) ->
      let analytic = (lin p ~vgs ~vds).L1.w_gds in
      let numeric = numeric_derivative (fun vds -> L1.ids p ~vgs ~vds) vds in
      check_close (Printf.sprintf "gds at %g %g" vgs vds) 1e-9 numeric analytic)
    [ (1.5, 0.5); (1.5, 3.0); (2.5, 1.0); (3.0, 0.2) ]

let test_negative_vds_rejected () =
  Alcotest.check_raises "vds < 0" (Invalid_argument "Level1: vds must be >= 0")
    (fun () -> ignore (L1.ids p ~vgs:1.0 ~vds:(-0.1)))

let test_depletion_device () =
  (* negative vth conducts at vgs = 0 *)
  let dep = { p with L1.vth = -0.57 } in
  Alcotest.(check bool) "on at vgs=0" true (L1.ids dep ~vgs:0.0 ~vds:1.0 > 0.0);
  Alcotest.(check bool) "off below vth" true (L1.ids dep ~vgs:(-1.0) ~vds:1.0 = 0.0)

let prop_ids_nonnegative =
  QCheck2.Test.make ~name:"ids >= 0 for vds >= 0" ~count:500
    QCheck2.Gen.(pair (float_range (-2.0) 6.0) (float_range 0.0 6.0))
    (fun (vgs, vds) -> L1.ids p ~vgs ~vds >= 0.0)

let prop_gm_nonnegative =
  QCheck2.Test.make ~name:"gm >= 0" ~count:500
    QCheck2.Gen.(pair (float_range (-2.0) 6.0) (float_range 0.0 6.0))
    (fun (vgs, vds) -> (lin p ~vgs ~vds).L1.w_gm >= 0.0)

(* --- Level 3 ---------------------------------------------------------- *)

module L3 = Lattice_mosfet.Level3
module Model = Lattice_mosfet.Model

let test_level3_reduces_to_level1 () =
  (* theta = 0 and a huge vmax recover level 1 *)
  let p3 = L3.of_level1 ~theta:0.0 ~vmax:1e12 p in
  List.iter
    (fun (vgs, vds) ->
      check_close
        (Printf.sprintf "agree at %g %g" vgs vds)
        (1e-6 *. Float.max 1e-9 (L1.ids p ~vgs ~vds))
        (L1.ids p ~vgs ~vds) (L3.ids p3 ~vgs ~vds))
    [ (0.2, 1.0); (1.0, 0.3); (2.0, 3.0); (3.0, 0.5); (5.0, 5.0) ]

let test_level3_reduces_current () =
  (* short-channel effects only ever lower the current *)
  let p3 = L3.of_level1 ~theta:0.3 ~vmax:5e4 p in
  List.iter
    (fun (vgs, vds) ->
      Alcotest.(check bool)
        (Printf.sprintf "lower at %g %g" vgs vds)
        true
        (L3.ids p3 ~vgs ~vds <= L1.ids p ~vgs ~vds +. 1e-15))
    [ (1.0, 0.5); (2.0, 2.0); (3.0, 5.0); (5.0, 1.0) ]

(* the velocity-saturation-limited saturation voltage Vov Vc / (Vov + Vc) *)
let level3_vdsat p3 ~vgs =
  let vov = vgs -. p.L1.vth in
  vov *. p3.L3.vc /. (vov +. p3.L3.vc)

let test_level3_vdsat_capped () =
  (* the current saturates at vdsat, below vov: past it only the
     (1 + lambda vds) factor grows *)
  let p3 = L3.of_level1 ~theta:0.1 ~vmax:1e5 p in
  let vgs = 3.0 in
  let vov = vgs -. p.L1.vth in
  let vsat = level3_vdsat p3 ~vgs in
  Alcotest.(check bool) "vdsat below vov" true (vsat < vov);
  Alcotest.(check bool) "vdsat positive" true (vsat > 0.0);
  let flat vds = L3.ids p3 ~vgs ~vds /. (1.0 +. (p.L1.lambda *. vds)) in
  check_close "saturated at vdsat" 1e-12 (flat vsat) (flat vov);
  Alcotest.(check bool) "still rising below vdsat" true (flat (0.9 *. vsat) < flat vsat)

let test_level3_continuity () =
  let p3 = L3.of_level1 ~theta:0.2 ~vmax:8e4 p in
  let vgs = 2.5 in
  let vsat = level3_vdsat p3 ~vgs in
  let below = L3.ids p3 ~vgs ~vds:(vsat -. 1e-9) in
  let above = L3.ids p3 ~vgs ~vds:(vsat +. 1e-9) in
  check_close "continuous at vdsat" 1e-9 below above

let test_level3_monotone () =
  let p3 = L3.of_level1 ~theta:0.15 ~vmax:1e5 p in
  let prev = ref (-1.0) in
  for i = 0 to 50 do
    let vds = float_of_int i /. 10.0 in
    let ids = L3.ids p3 ~vgs:3.0 ~vds in
    if ids < !prev -. 1e-15 then Alcotest.failf "level3 not monotone in vds at %.2f" vds;
    prev := ids
  done

let test_level3_validation () =
  Alcotest.(check bool) "negative theta rejected" true
    (match L3.of_level1 ~theta:(-0.1) p with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "zero vmax rejected" true
    (match L3.of_level1 ~vmax:0.0 p with exception Invalid_argument _ -> true | _ -> false)

(* ids and gm of a model, through its dispatch *)
let model_ids_gm m ~vgs ~vds =
  let w = L1.workspace_create () in
  w.L1.w_vgs <- vgs;
  w.L1.w_vds <- vds;
  Model.linearize w m;
  (w.L1.w_ids, w.L1.w_gm)

let test_model_dispatch () =
  let m1 = Model.L1 p in
  let m3 = Model.L3 (L3.of_level1 ~theta:0.0 ~vmax:1e12 p) in
  check_close "ids agrees" 1e-9
    (fst (model_ids_gm m1 ~vgs:2.0 ~vds:1.0))
    (fst (model_ids_gm m3 ~vgs:2.0 ~vds:1.0));
  Alcotest.(check bool) "on conductance positive" true (Model.on_conductance m1 ~vdd:1.2 > 0.0)

let test_model_gm_numeric () =
  let m3 = Model.L3 (L3.of_level1 ~theta:0.2 ~vmax:8e4 p) in
  let analytic = snd (model_ids_gm m3 ~vgs:2.0 ~vds:1.0) in
  let h = 1e-5 in
  let numeric =
    (fst (model_ids_gm m3 ~vgs:(2.0 +. h) ~vds:1.0) -. fst (model_ids_gm m3 ~vgs:(2.0 -. h) ~vds:1.0))
    /. (2.0 *. h)
  in
  check_close "level3 gm consistent" (Float.abs numeric *. 1e-2) numeric analytic

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "mosfet"
    [
      ( "level1",
        [
          Alcotest.test_case "region classification" `Quick test_regions;
          Alcotest.test_case "cutoff" `Quick test_cutoff_zero;
          Alcotest.test_case "known values" `Quick test_known_values;
          Alcotest.test_case "continuity at vdsat" `Quick test_continuity_at_vdsat;
          Alcotest.test_case "monotonicity" `Quick test_monotonicity;
          Alcotest.test_case "signed antisymmetry" `Quick test_ids_signed_antisymmetry;
          Alcotest.test_case "source reference on reversal" `Quick test_ids_signed_source_reference;
          Alcotest.test_case "gm vs numeric derivative" `Quick test_gm_matches_numeric;
          Alcotest.test_case "gds vs numeric derivative" `Quick test_gds_matches_numeric;
          Alcotest.test_case "negative vds rejected" `Quick test_negative_vds_rejected;
          Alcotest.test_case "depletion device" `Quick test_depletion_device;
          (* keeps "ids >= 0 for vds >= 0" at its earlier suite index *)
          qc prop_gm_nonnegative;
          qc prop_ids_nonnegative;
        ] );
      ( "level3",
        [
          Alcotest.test_case "reduces to level 1" `Quick test_level3_reduces_to_level1;
          Alcotest.test_case "short-channel lowers current" `Quick test_level3_reduces_current;
          Alcotest.test_case "vdsat capped" `Quick test_level3_vdsat_capped;
          Alcotest.test_case "continuity at vdsat" `Quick test_level3_continuity;
          Alcotest.test_case "monotone in vds" `Quick test_level3_monotone;
          Alcotest.test_case "parameter validation" `Quick test_level3_validation;
          Alcotest.test_case "model dispatch" `Quick test_model_dispatch;
          Alcotest.test_case "level3 gm numeric consistency" `Quick test_model_gm_numeric;
        ] );
    ]
