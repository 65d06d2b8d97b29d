module Sp = Lattice_spice
module Lib = Lattice_synthesis.Library

type style_result = {
  static_power_per_state : float array;
  static_power_mean : float;
  v_low : float;
  v_high : float;
  rise_time : float option;
  fall_time : float option;
  mid_rise : float option;
  functional_pass : bool;
}

type result = {
  resistor : style_result;
  complementary : style_result;
  power_reduction : float;
  rise_speedup : float;
}

let vdd = 1.2

let build_circuit style ~stimulus =
  match style with
  | `Resistor -> Sp.Lattice_circuit.build Lib.xor3_3x3 ~stimulus
  | `Complementary ->
    Sp.Lattice_circuit.build_complementary ~pull_up:Lib.xnor3_3x3 ~pull_down:Lib.xor3_3x3
      ~stimulus ()

(* supply power drawn at DC for one input combination *)
let static_power style m =
  let lc = build_circuit style ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m) in
  let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
  match Sp.Netlist.vsource_index lc.Sp.Lattice_circuit.netlist "VDD" with
  | Some idx ->
    let i_into_source = x.(Sp.Netlist.vsource_row lc.Sp.Lattice_circuit.netlist idx) in
    -.i_into_source *. vdd
  | None -> assert false

let run_style ?(bit_time = 100e-9) ?(h = 0.5e-9) style =
  let static_power_per_state = Array.init 8 (static_power style) in
  let lc =
    build_circuit style ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time)
  in
  let r =
    Sp.Transient.run lc.Sp.Lattice_circuit.netlist ~h ~t_stop:(8.0 *. bit_time)
      ~record:[ lc.Sp.Lattice_circuit.output_node ] ()
  in
  let out = Sp.Transient.signal r lc.Sp.Lattice_circuit.output_node in
  let times = r.Sp.Transient.times in
  let v_low, v_high = Sp.Measure.steady_levels times out ~settle:(bit_time /. 5.0) in
  let functional_pass =
    List.for_all
      (fun k ->
        let t = (float_of_int k +. 0.95) *. bit_time in
        let v = Sp.Measure.value_at times out t in
        let parity = (k land 1) lxor ((k lsr 1) land 1) lxor ((k lsr 2) land 1) in
        Bool.equal (v > vdd /. 2.0) (parity = 0))
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  {
    static_power_per_state;
    static_power_mean = Lattice_numerics.Stats.mean static_power_per_state;
    v_low;
    v_high;
    rise_time = Sp.Measure.rise_time times out ~low:v_low ~high:v_high;
    fall_time = Sp.Measure.fall_time times out ~low:v_low ~high:v_high;
    mid_rise = Sp.Measure.edge_between times out ~from_level:(0.2 *. vdd) ~to_level:(0.5 *. vdd);
    functional_pass;
  }

let run ?bit_time ?h () =
  let resistor = run_style ?bit_time ?h `Resistor in
  let complementary = run_style ?bit_time ?h `Complementary in
  let rise_speedup =
    match (resistor.rise_time, complementary.rise_time) with
    | Some a, Some b -> a /. b
    | Some _, None | None, Some _ | None, None -> nan
  in
  {
    resistor;
    complementary;
    power_reduction = resistor.static_power_mean /. complementary.static_power_mean;
    rise_speedup;
  }

let report () =
  let r = run () in
  let opt_ns = function Some t -> Printf.sprintf "%.3g" (t *. 1e9) | None -> "-" in
  let rows =
    [
      Report.row ~id:"ExtVIa" ~metric:"both styles functional" ~paper:"yes"
        ~measured:(if r.resistor.functional_pass && r.complementary.functional_pass then "yes" else "NO")
        ();
      Report.row_f ~id:"ExtVIa" ~metric:"static power, resistor load, uW" ~paper:nan
        ~measured:(r.resistor.static_power_mean *. 1e6) ();
      Report.row_f ~id:"ExtVIa" ~metric:"static power, complementary, uW" ~paper:nan
        ~measured:(r.complementary.static_power_mean *. 1e6)
        ~note:"paper: 'almost zero'" ();
      Report.row_f ~id:"ExtVIa" ~metric:"static power reduction, x" ~paper:nan
        ~measured:r.power_reduction ();
      Report.row ~id:"ExtVIa" ~metric:"rise time resistor -> compl., ns"
        ~paper:"eliminates pull-up dominance"
        ~measured:(Printf.sprintf "%s -> %s" (opt_ns r.resistor.rise_time)
             (opt_ns r.complementary.rise_time))
        ~note:"10-90%: n-type pass tail dominates" ();
      Report.row ~id:"ExtVIa" ~metric:"mid-swing rise (0.2->0.5 VDD), ns" ~paper:"-"
        ~measured:(Printf.sprintf "%s -> %s" (opt_ns r.resistor.mid_rise)
             (opt_ns r.complementary.mid_rise))
        ~note:"active pull-up wins below mid-swing" ();
      Report.row_f ~id:"ExtVIa" ~metric:"V_OH complementary (n-type pass), V" ~paper:nan
        ~measured:r.complementary.v_high
        ~note:"degraded by ~Vth: needs p-type switch" ();
      Report.row_f ~id:"ExtVIa" ~metric:"V_OL complementary, V" ~paper:nan
        ~measured:r.complementary.v_low ();
    ]
  in
  {
    Report.title = "Extension (paper Sec VI-A): complementary lattice structure";
    rows;
    body = "";
  }
