(* Integration tests: every paper experiment runs and lands on the paper's
   side of each comparison. *)

module E = Lattice_experiments

(* the measured column of a report's row, found by its metric *)
let measured (r : E.Report.t) metric =
  match List.find_opt (fun row -> row.E.Report.metric = metric) r.E.Report.rows with
  | Some row -> row.E.Report.measured
  | None -> Alcotest.failf "%s: no row %S" r.E.Report.title metric

let paper (r : E.Report.t) metric =
  (List.find (fun row -> row.E.Report.metric = metric) r.E.Report.rows).E.Report.paper

let test_table1 () =
  let r = E.Exp_table1.run ~max_dim:6 () in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "no mismatches" []
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) r.E.Exp_table1.mismatches)

let test_lattice_function () =
  let r = E.Exp_lattice_function.report () in
  Alcotest.(check string) "matches Fig 2c" "yes" (measured r "products match the printed list");
  Alcotest.(check string) "9 products" "9" (measured r "product count")

let test_xor3_synthesis () =
  let r = E.Exp_xor3.run () in
  Alcotest.(check bool) "3x3 valid" true r.E.Exp_xor3.lattice_3x3_valid;
  Alcotest.(check bool) "3x4 valid" true r.E.Exp_xor3.lattice_3x4_valid;
  Alcotest.(check bool) "AR valid" true r.E.Exp_xor3.altun_riedel_valid;
  Alcotest.(check int) "AR 4x4" 16 (r.E.Exp_xor3.altun_riedel_rows * r.E.Exp_xor3.altun_riedel_cols)

let check_within_order msg paper measured =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3g within 10x of paper %.3g" msg measured paper)
    true
    (measured > paper /. 10.0 && measured < paper *. 10.0)

let test_iv_variants () =
  List.iter
    (fun shape ->
      let r = E.Exp_iv.report shape in
      List.iter
        (fun d ->
          let value column metric = float_of_string (column r metric) in
          let vth = Printf.sprintf "Vth (%s), V" d and ratio = Printf.sprintf "Ion/Ioff (%s)" d in
          (* threshold voltages within 0.3 V of the paper's TCAD values *)
          Alcotest.(check bool)
            (Printf.sprintf "%s %s vth" r.E.Report.title d)
            true
            (Float.abs (value measured vth -. value paper vth) < 0.3);
          check_within_order
            (Printf.sprintf "%s %s on/off" r.E.Report.title d)
            (value paper ratio) (value measured ratio))
        [ "HfO2"; "SiO2" ])
    [ Lattice_device.Geometry.Square; Lattice_device.Geometry.Cross;
      Lattice_device.Geometry.Junctionless ]

let test_iv_orderings () =
  (* qualitative claims of Section III-B *)
  let square = E.Exp_iv.report Lattice_device.Geometry.Square in
  let cross = E.Exp_iv.report Lattice_device.Geometry.Cross in
  let value r metric = float_of_string (measured r metric) in
  Alcotest.(check bool) "HfO2 threshold below SiO2" true
    (value square "Vth (HfO2), V" < value square "Vth (SiO2), V");
  Alcotest.(check bool) "cross currents smaller than square" true
    (value cross "peak Ids @ Vds=5V (HfO2), A" < value square "peak Ids @ Vds=5V (HfO2), A");
  Alcotest.(check bool) "cross threshold above square" true
    (value cross "Vth (HfO2), V" > value square "Vth (HfO2), V")

let test_field () =
  let r = E.Exp_field.run ~n:32 () in
  Alcotest.(check bool) "cross more uniform" true r.E.Exp_field.cross_more_uniform;
  Alcotest.(check bool) "solves converged" true
    (r.E.Exp_field.square.Lattice_device.Field2d.converged
    && r.E.Exp_field.cross.Lattice_device.Field2d.converged
    && r.E.Exp_field.junctionless.Lattice_device.Field2d.converged)

let test_fit () =
  let r = E.Exp_fit.run () in
  let e = r.E.Exp_fit.extraction in
  Alcotest.(check bool) "converged" true e.Lattice_fit.Fit.converged;
  Alcotest.(check bool) "r2 high" true (e.Lattice_fit.Fit.r_squared > 0.999);
  Alcotest.(check bool) "vth near electrostatic" true
    (Float.abs (e.Lattice_fit.Fit.vth -. r.E.Exp_fit.vth_electrostatic) < 0.05)

let test_transient () =
  let r = E.Exp_transient.run ~bit_time:60e-9 ~h:1e-9 () in
  Alcotest.(check bool) "functional" true r.E.Exp_transient.functional_pass;
  (* zero-state output: paper 0.22 V, ours within [0.05, 0.4] *)
  Alcotest.(check bool) "zero level plausible" true
    (r.E.Exp_transient.v_low > 0.05 && r.E.Exp_transient.v_low < 0.4);
  Alcotest.(check bool) "one level at VDD" true (r.E.Exp_transient.v_high > 1.15);
  (match r.E.Exp_transient.rise_time with
  | Some t -> Alcotest.(check bool) "rise ns-scale" true (t > 1e-9 && t < 100e-9)
  | None -> Alcotest.fail "no rise observed");
  match r.E.Exp_transient.fall_time with
  | Some t ->
    Alcotest.(check bool) "fall faster than rise" true
      (match r.E.Exp_transient.rise_time with Some rt -> t < rt | None -> false)
  | None -> Alcotest.fail "no fall observed"

let test_transient_integrators_agree () =
  (* design-choice ablation on the Fig 11 circuit: both integrators give
     the same settled output level in every input combination *)
  let module Sp = Lattice_spice in
  let bit_time = 40e-9 in
  let lc =
    Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time)
  in
  let out = lc.Sp.Lattice_circuit.output_node in
  let settled integrator =
    let options = { Sp.Transient.default_options with Sp.Transient.integrator } in
    let r =
      Sp.Transient.run ~options lc.Sp.Lattice_circuit.netlist ~h:1e-9 ~t_stop:(8.0 *. bit_time)
        ~record:[ out ] ()
    in
    Array.init 8 (fun k ->
        Sp.Measure.value_at r.Sp.Transient.times (Sp.Transient.signal r out)
          ((float_of_int k +. 0.95) *. bit_time))
  in
  let trap = settled Sp.Transient.Trapezoidal and be = settled Sp.Transient.Backward_euler in
  Array.iteri
    (fun k v ->
      let parity = (k land 1) lxor ((k lsr 1) land 1) lxor ((k lsr 2) land 1) in
      Alcotest.(check bool) (Printf.sprintf "combo %d functional" k) (parity = 0) (v > 0.6);
      Alcotest.(check (float 0.02)) (Printf.sprintf "combo %d same level" k) v be.(k))
    trap

let test_series () =
  let r = E.Exp_series.run ~max_n:21 () in
  (* paper decay ratio 11.12/0.52 ~ 21.4; ours must land nearby *)
  Alcotest.(check bool)
    (Printf.sprintf "decay ratio %.1f in [15, 30]" r.E.Exp_series.decay_ratio)
    true
    (r.E.Exp_series.decay_ratio > 15.0 && r.E.Exp_series.decay_ratio < 30.0);
  (* currents strictly decreasing *)
  Array.iteri
    (fun i x -> if i > 0 then Alcotest.(check bool) "decreasing" true (x < r.E.Exp_series.currents.(i - 1)))
    r.E.Exp_series.currents;
  (* Fig 12b: nearly linear voltage requirement *)
  Alcotest.(check bool) "linear-ish" true (r.E.Exp_series.linearity_r2 > 0.95);
  Alcotest.(check bool) "V(21) in [1.5, 3.5]" true
    (r.E.Exp_series.voltages.(20) > 1.5 && r.E.Exp_series.voltages.(20) < 3.5)

let test_cases_symmetry () =
  let r = E.Exp_cases.report () in
  Alcotest.(check string) "16 cases" "16" (measured r "16 operating cases evaluated");
  Alcotest.(check string) "rotation symmetry exact" "exact" (measured r "symmetric cases correlate");
  (* adjacent (DSFF) and opposite (SFDF) single pairs differ on the square
     device (type A vs type B channel lengths); the body's last column is
     each case's drain total *)
  let total name =
    let line =
      List.find
        (fun l -> String.length l > 6 && String.sub l 0 6 = Printf.sprintf "%-6s" name)
        (String.split_on_char '\n' r.E.Report.body)
    in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
    float_of_string (List.nth fields (List.length fields - 1))
  in
  Alcotest.(check bool) "adjacent pair carries more than opposite" true
    (total "DSFF" > total "SFDF")

let test_complementary () =
  let r = E.Exp_complementary.run ~bit_time:50e-9 ~h:1e-9 () in
  Alcotest.(check bool) "resistor functional" true
    r.E.Exp_complementary.resistor.E.Exp_complementary.functional_pass;
  Alcotest.(check bool) "complementary functional" true
    r.E.Exp_complementary.complementary.E.Exp_complementary.functional_pass;
  Alcotest.(check bool)
    (Printf.sprintf "power reduction %.3g > 1000" r.E.Exp_complementary.power_reduction)
    true
    (r.E.Exp_complementary.power_reduction > 1000.0);
  Alcotest.(check bool) "V_OL ~ 0" true
    (r.E.Exp_complementary.complementary.E.Exp_complementary.v_low < 0.01);
  Alcotest.(check bool) "V_OH degraded below VDD" true
    (r.E.Exp_complementary.complementary.E.Exp_complementary.v_high < 1.15)

let test_frequency () =
  let r = E.Exp_frequency.run ~bit_time:50e-9 () in
  (match r.E.Exp_frequency.resistor.E.Exp_frequency.f3db_hz with
  | Some f ->
    (* output pole ~ 1/(2 pi * 500k * C_plate): tens of MHz *)
    Alcotest.(check bool) (Printf.sprintf "f3db %.3g MHz-scale" f) true (f > 1e6 && f < 1e9)
  | None -> Alcotest.fail "no resistor corner");
  Alcotest.(check bool) "complementary uses less cycle energy" true
    (r.E.Exp_frequency.complementary.E.Exp_frequency.cycle_energy_j
    < r.E.Exp_frequency.resistor.E.Exp_frequency.cycle_energy_j);
  Alcotest.(check bool) "energies positive" true
    (r.E.Exp_frequency.complementary.E.Exp_frequency.cycle_energy_j > 0.0)

let test_reports_render () =
  (* every report renders without raising and contains its id *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (make, id) ->
      let r = make () in
      let s = E.Report.render r in
      Alcotest.(check bool) (id ^ " rendered") true (contains s id))
    [
      ((fun () -> E.Exp_table1.report ~max_dim:4 ()), "TableI");
      (E.Exp_lattice_function.report, "Fig2c");
      ((fun () -> E.Exp_xor3.report ()), "Fig3");
      (E.Exp_table2.report, "TableII");
      ((fun () -> E.Exp_iv.report Lattice_device.Geometry.Square), "Fig5");
      ((fun () -> E.Exp_field.report ~n:24 ()), "Fig8");
      (E.Exp_fit.report, "Fig10");
    ]

let test_report_formatting () =
  let r =
    {
      E.Report.title = "demo";
      rows =
        [
          E.Report.row ~id:"Fig1" ~metric:"delay" ~paper:"12 ns" ~measured:"11.8 ns" ~note:"ok" ();
          E.Report.row_f ~id:"Fig2" ~metric:"energy" ~paper:Float.nan ~measured:1.23456e-12 ();
        ];
      body = "free-form body";
    }
  in
  let s = E.Report.render r in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | title :: header :: row1 :: row2 :: _ ->
    Alcotest.(check string) "title banner" "== demo ==" title;
    Alcotest.(check bool) "header names the columns" true
      (String.length header > 0 && String.sub header 0 2 = "id");
    Alcotest.(check bool) "header and rows align" true
      (String.length header >= 60
      && String.length row1 >= 60
      && String.sub row1 0 8 = "Fig1    ");
    Alcotest.(check bool) "nan paper value renders as dash" true
      (let rec contains s sub i =
         i + String.length sub <= String.length s
         && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))
       in
       contains row2 " - " 0 && contains row2 "1.235e-12" 0)
  | _ -> Alcotest.fail "render produced too few lines");
  (* body is separated by a blank line and always newline-terminated *)
  Alcotest.(check bool) "body separated and terminated" true
    (String.length s >= 16
    && String.sub s (String.length s - 16) 16 = "\nfree-form body\n");
  (* no rows, no body: just the banner *)
  Alcotest.(check string) "empty report is only the banner" "== empty ==\n"
    (E.Report.render { E.Report.title = "empty"; rows = []; body = "" });
  (* a body that already ends in a newline is not double-terminated *)
  let r' = { E.Report.title = "t"; rows = []; body = "line\n" } in
  Alcotest.(check string) "trailing newline preserved" "== t ==\n\nline\n"
    (E.Report.render r')

let test_report_row_f () =
  let r = E.Report.row_f ~id:"x" ~metric:"m" ~paper:3.14159265 ~measured:Float.nan () in
  Alcotest.(check string) "paper %.4g" "3.142" r.E.Report.paper;
  Alcotest.(check string) "nan measured dashes" "-" r.E.Report.measured;
  Alcotest.(check string) "note defaults empty" "" r.E.Report.note

let () =
  Alcotest.run "experiments"
    [
      ( "paper",
        [
          Alcotest.test_case "Table I (to 6x6)" `Quick test_table1;
          Alcotest.test_case "Fig 2c lattice function" `Quick test_lattice_function;
          Alcotest.test_case "Fig 3 XOR3 lattices" `Quick test_xor3_synthesis;
          Alcotest.test_case "Figs 5-7 I-V figures of merit" `Quick test_iv_variants;
          Alcotest.test_case "Figs 5-7 qualitative orderings" `Quick test_iv_orderings;
          Alcotest.test_case "Fig 8 field profiles" `Slow test_field;
          Alcotest.test_case "Fig 10 extraction" `Quick test_fit;
          Alcotest.test_case "Fig 11 transient" `Slow test_transient;
          Alcotest.test_case "Fig 11 integrator ablation" `Slow test_transient_integrators_agree;
          Alcotest.test_case "Fig 12 series chain" `Slow test_series;
          Alcotest.test_case "Sec III-B 16-case symmetry" `Quick test_cases_symmetry;
          Alcotest.test_case "Sec VI-A complementary structure" `Slow test_complementary;
          Alcotest.test_case "Sec VI-A frequency and energy" `Slow test_frequency;
          Alcotest.test_case "reports render" `Quick test_reports_render;
        ] );
      ( "report",
        [
          Alcotest.test_case "formatting" `Quick test_report_formatting;
          Alcotest.test_case "row_f float rendering" `Quick test_report_row_f;
        ] );
    ]
