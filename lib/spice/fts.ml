module Level1 = Lattice_mosfet.Level1
module Model = Lattice_mosfet.Model

type mosfet_types = { type_a : Model.t; type_b : Model.t }

let level1_params ~kp ~vth ~lambda ~l = { Level1.kp; vth; lambda; w = 700e-9; l }

let make_types ~kp ~vth ~lambda =
  {
    type_a = Model.L1 (level1_params ~kp ~vth ~lambda ~l:0.35e-6);
    type_b = Model.L1 (level1_params ~kp ~vth ~lambda ~l:0.5e-6);
  }

(* square / HfO2 extraction (see Lattice_fit.Fit and EXPERIMENTS.md) *)
let default_kp = 1.77e-5

let default_vth = 0.155
let default_lambda = 0.05
let default_types = make_types ~kp:default_kp ~vth:default_vth ~lambda:default_lambda

let level3_types () =
  let promote l =
    Model.L3
      (Lattice_mosfet.Level3.of_level1
         (level1_params ~kp:default_kp ~vth:default_vth ~lambda:default_lambda ~l))
  in
  { type_a = promote 0.35e-6; type_b = promote 0.5e-6 }

let default_terminal_cap = 1e-15

(* the six MOSFETs in the order [instantiate] adds them: four Type A
   edges, then two Type B diagonals *)
let models types =
  [| types.type_a; types.type_a; types.type_a; types.type_a; types.type_b; types.type_b |]

let instantiate ckt ~name ~north ~east ~south ~west ~gate ?(terminal_cap = default_terminal_cap)
    types =
  let m = models types in
  let fet suffix d s model =
    Netlist.mosfet_model ckt (Printf.sprintf "%s.%s" name suffix) ~drain:d ~gate ~source:s model
  in
  (* four Type A edges *)
  fet "MA_ne" north east m.(0);
  fet "MA_es" east south m.(1);
  fet "MA_sw" south west m.(2);
  fet "MA_wn" west north m.(3);
  (* two Type B diagonals *)
  fet "MB_ns" north south m.(4);
  fet "MB_ew" east west m.(5);
  if terminal_cap > 0.0 then begin
    let cap suffix n =
      Netlist.capacitor ckt (Printf.sprintf "%s.C%s" name suffix) n Netlist.ground terminal_cap
    in
    cap "n" north;
    cap "e" east;
    cap "s" south;
    cap "w" west
  end
