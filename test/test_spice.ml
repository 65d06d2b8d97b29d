(* Tests for the SPICE-like circuit engine. *)

module Sp = Lattice_spice
module L1 = Lattice_mosfet.Level1

let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

let nmos = { L1.kp = 2e-5; vth = 0.4; lambda = 0.02; w = 700e-9; l = 350e-9 }

(* a level-1 transistor *)
let mosfet ckt name ~drain ~gate ~source p =
  Sp.Netlist.mosfet_model ckt name ~drain ~gate ~source (Lattice_mosfet.Model.L1 p)

(* --- Units ------------------------------------------------------------- *)

(* table-driven checks for the deck-facing SPICE value syntax: the
   m-vs-meg trap, bare units, exponents followed by scale letters *)
let test_units_parse_spice () =
  let cases =
    [
      ("1meg", Some 1e6);
      ("1m", Some 1e-3);  (* milli, NOT mega *)
      ("1MEG", Some 1e6);
      ("10pF", Some 10e-12);  (* trailing unit letters ignored *)
      ("2ns", Some 2e-9);
      ("2.5u", Some 2.5e-6);
      ("-3.3k", Some (-3.3e3));
      ("1e3k", Some 1e6);  (* exponent then scale letter *)
      ("4t", Some 4e12);
      ("7g", Some 7e9);
      ("100f", Some 100e-15);
      ("1mil", Some 25.4e-6);
      ("0.155", Some 0.155);
      ("1.5e-9", Some 1.5e-9);
      ("42V", Some 42.0);  (* bare unit, scale 1 *)
      ("", None);
      ("k", None);  (* no digits *)
      ("1.2.3", None);
      ("3m#", None);  (* junk after the suffix *)
      ("1e", Some 1.0);  (* no digit after 'e': the 'e' is a bare unit *)
      ("500k", Some 500e3);
      ("1f", Some 1e-15);
      ("10n", Some 10e-9);
      ("3MEG", Some 3e6);
      ("42", Some 42.0);
      ("-3m", Some (-3e-3));
      ("abc", None);
    ]
  in
  List.iter
    (fun (s, expected) ->
      match (Sp.Units.parse_spice s, expected) with
      | Some got, Some want ->
        (* a 1-ulp slack: [mantissa *. scale] may differ from the decimal
           literal in the last bit *)
        check_close (Printf.sprintf "parse_spice %S" s) (Float.abs want *. 1e-15) want got
      | None, None -> ()
      | Some got, None -> Alcotest.failf "parse_spice %S: expected None, got %g" s got
      | None, Some want -> Alcotest.failf "parse_spice %S: expected %g, got None" s want)
    cases

let test_units_print_spice () =
  Alcotest.(check string) "1e6 is meg, not m" "1meg" (Sp.Units.print_spice 1e6);
  Alcotest.(check string) "1e-3 is milli" "1m" (Sp.Units.print_spice 1e-3);
  (* the double behind "10pF" prints back as "10p" (the literal 1e-11 is
     one ulp away from 10 *. 1e-12 and prints as "1e-11" instead) *)
  Alcotest.(check string) "10pF value" "10p"
    (Sp.Units.print_spice (Option.get (Sp.Units.parse_spice "10pF")));
  Alcotest.(check string) "2ns value" "2n" (Sp.Units.print_spice 2e-9);
  Alcotest.(check string) "zero" "0" (Sp.Units.print_spice 0.0);
  Alcotest.(check string) "500k" "500k" (Sp.Units.print_spice 5e5);
  Alcotest.(check string) "1f" "1f" (Sp.Units.print_spice 1e-15);
  Alcotest.(check string) "10n" "10n" (Sp.Units.print_spice 10e-9);
  Alcotest.(check string) "negative" "-4.7n"
    (Sp.Units.print_spice (Option.get (Sp.Units.parse_spice "-4.7n")));
  (* the decimal literal -4.7e-9 is one ulp from -4.7 *. 1e-9; its
     shortest exact spelling goes through the pico scale instead *)
  Alcotest.(check string) "negative literal" "-4700p" (Sp.Units.print_spice (-4.7e-9));
  (* print_spice must be bit-exact under parse_spice for arbitrary floats *)
  List.iter
    (fun x ->
      let s = Sp.Units.print_spice x in
      match Sp.Units.parse_spice s with
      | None -> Alcotest.failf "print_spice %h -> %S does not reparse" x s
      | Some y ->
        Alcotest.(check bool)
          (Printf.sprintf "bit-exact roundtrip %h via %S" x s)
          true
          (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
    [
      1.0; -1.0; 0.1; 1.2; 17.7e-6; 155e-3; 2.0000000000000003e-9; Float.pi;
      1e-15; 9.999999999999999e22; 5e5; 1.0000000000000002; -0.0; 3.141e-21; 2.2e-12; 3.3e6;
      -4.7e-9;
    ]

(* The search [Units.print_spice] prunes, kept whole as its oracle:
   every candidate is reparsed, and a strictly shorter exact one wins. *)
let print_spice_unpruned x =
  if not (Float.is_finite x) then Printf.sprintf "%.17g" x
  else if x = 0.0 && 1.0 /. x > 0.0 then "0"
  else begin
    let bits = Int64.bits_of_float x in
    let best = ref None in
    let consider s =
      let exact =
        match Sp.Units.parse_spice s with
        | Some y -> Int64.equal (Int64.bits_of_float y) bits
        | None -> false
      in
      if exact then
        match !best with
        | Some b when String.length b <= String.length s -> ()
        | _ -> best := Some s
    in
    let shortest_for v suffix =
      for p = 1 to 17 do
        consider (Printf.sprintf "%.*g%s" p v suffix)
      done
    in
    shortest_for x "";
    List.iter
      (fun (suffix, scale) ->
        let v = x /. scale in
        if Float.is_finite v && v <> 0.0 then shortest_for v suffix)
      [ ("t", 1e12); ("g", 1e9); ("meg", 1e6); ("k", 1e3); ("m", 1e-3);
        ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15) ];
    match !best with Some s -> s | None -> Printf.sprintf "%.17g" x
  end

(* doubles where the shortest spelling is contested: any bit pattern,
   subnormals, powers of ten (as a literal and as a product), and
   multiples of each suffix scale with their neighbouring doubles *)
let spice_value_gen =
  let open QCheck2.Gen in
  let scales = [ 1e12; 1e9; 1e6; 1e3; 1.0; 1e-3; 1e-6; 1e-9; 1e-12; 1e-15; 25.4e-6 ] in
  let magnitude =
    oneof
      [
        map Int64.float_of_bits int64;
        map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 ((1 lsl 52) - 1));
        map (fun k -> float_of_string (Printf.sprintf "1e%d" k)) (int_range (-323) 308);
        map (fun k -> 10.0 ** float_of_int k) (int_range (-30) 30);
        map
          (fun ((scale, m), nudge) -> nudge (scale *. m))
          (pair
             (pair (oneofl scales) (oneofl [ 0.1; 1.0; 4.7; 10.0; 100.0; 999.0; 1000.0 ]))
             (oneofl [ Fun.id; Float.pred; Float.succ ]));
      ]
  in
  map2 (fun x negate -> if negate then -.x else x) magnitude bool

let prop_print_spice_matches_unpruned =
  QCheck2.Test.make ~name:"print_spice = unpruned search" ~count:1000
    ~print:(Printf.sprintf "%h") spice_value_gen (fun x ->
      String.equal (Sp.Units.print_spice x) (print_spice_unpruned x))

(* --- Source ------------------------------------------------------------- *)

let test_source_dc () =
  check_close "dc" 1e-12 3.3 (Sp.Source.value (Sp.Source.Dc 3.3) 1.0)

let test_source_pulse () =
  let p =
    Sp.Source.Pulse
      { v1 = 0.0; v2 = 1.0; delay = 10e-9; rise = 1e-9; fall = 1e-9; width = 8e-9; period = 20e-9 }
  in
  check_close "before delay" 1e-12 0.0 (Sp.Source.value p 5e-9);
  check_close "mid rise" 1e-6 0.5 (Sp.Source.value p 10.5e-9);
  check_close "high" 1e-12 1.0 (Sp.Source.value p 15e-9);
  check_close "mid fall" 1e-6 0.5 (Sp.Source.value p 19.5e-9);
  check_close "next period high" 1e-12 1.0 (Sp.Source.value p 35e-9)

(* bit 0 of a 50 ns bit clock: a 100 ns square wave with 1 ns edges *)
let square_100ns = Sp.Source.bit_clock ~vdd:1.2 ~bit_time:50e-9 ~bit_index:0 ()

let test_source_square_starts_low () =
  let w = square_100ns in
  check_close "t=0" 1e-12 0.0 (Sp.Source.value w 0.0);
  check_close "first half low" 1e-12 0.0 (Sp.Source.value w 25e-9);
  check_close "second half high" 1e-12 1.2 (Sp.Source.value w 75e-9);
  check_close "third half low" 1e-12 0.0 (Sp.Source.value w 125e-9)

let test_source_bit_clock_counter () =
  (* driving bits 0..2 walks through the 8 combinations in order *)
  let bit_time = 10e-9 in
  for slot = 0 to 7 do
    for bit = 0 to 2 do
      let w = Sp.Source.bit_clock ~vdd:1.0 ~bit_time ~bit_index:bit () in
      let t = (float_of_int slot +. 0.5) *. bit_time in
      let expect = if (slot lsr bit) land 1 = 1 then 1.0 else 0.0 in
      check_close (Printf.sprintf "slot %d bit %d" slot bit) 1e-9 expect (Sp.Source.value w t)
    done
  done

let test_source_pwl () =
  let w = Sp.Source.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) ] in
  check_close "interp" 1e-12 1.0 (Sp.Source.value w 0.5);
  check_close "plateau" 1e-12 2.0 (Sp.Source.value w 2.0);
  check_close "tail clamp" 1e-12 0.0 (Sp.Source.value w 10.0);
  check_close "head clamp" 1e-12 0.0 (Sp.Source.value w (-1.0))

let test_source_complement () =
  let w = square_100ns in
  let wb = Sp.Lattice_circuit.complement ~vdd:1.2 w in
  check_close "complement of low" 1e-12 1.2 (Sp.Source.value wb 25e-9);
  check_close "complement of high" 1e-12 0.0 (Sp.Source.value wb 75e-9)

(* --- Netlist ------------------------------------------------------------- *)

let test_netlist_nodes () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  let a' = Sp.Netlist.node ckt "a" in
  Alcotest.(check int) "interned" a a';
  Alcotest.(check int) "ground is 0" 0 (Sp.Netlist.node ckt "0");
  Alcotest.(check int) "gnd alias" 0 (Sp.Netlist.node ckt "gnd");
  Alcotest.(check string) "name back" "a" (Sp.Netlist.node_name ckt a);
  let f1 = Sp.Netlist.fresh_node ckt "x" in
  let f2 = Sp.Netlist.fresh_node ckt "x" in
  Alcotest.(check bool) "fresh distinct" true (f1 <> f2)

let test_netlist_counts () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" and b = Sp.Netlist.node ckt "b" in
  Sp.Netlist.resistor ckt "R1" a b 1e3;
  Sp.Netlist.capacitor ckt "C1" b Sp.Netlist.ground 1e-12;
  Sp.Netlist.vsource ckt "V1" a Sp.Netlist.ground (Sp.Source.Dc 1.0);
  mosfet ckt "M1" ~drain:b ~gate:a ~source:Sp.Netlist.ground nmos;
  Alcotest.(check int) "nodes" 2 (Sp.Netlist.num_nodes ckt);
  Alcotest.(check int) "vsources" 1 (Sp.Netlist.unknowns ckt - Sp.Netlist.num_nodes ckt);
  Alcotest.(check int) "unknowns" 3 (Sp.Netlist.unknowns ckt);
  Alcotest.(check int) "elements" 4 (List.length (Sp.Netlist.elements ckt))

let test_netlist_rejects_bad_values () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  Alcotest.(check bool) "zero resistance" true
    (match Sp.Netlist.resistor ckt "R" a Sp.Netlist.ground 0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative capacitance" true
    (match Sp.Netlist.capacitor ckt "C" a Sp.Netlist.ground (-1e-15) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* the canonical deck text of a netlist, checked to parse back to the
   same circuit *)
let emit_deck ckt ~title =
  let deck = Lattice_deck.Deck.emit (Lattice_deck.Deck.of_netlist ~title ckt) in
  (match Lattice_deck.Deck.parse deck with
  | Error e ->
    Alcotest.failf "emitted deck does not parse: %s" (Lattice_deck.Deck.error_to_string e)
  | Ok d ->
    Alcotest.(check string) "re-parsed structural digest" (Sp.Netlist.structural_digest ckt)
      (Sp.Netlist.structural_digest d.Lattice_deck.Deck.netlist));
  deck

let test_netlist_spice_export () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" and out = Sp.Netlist.node ckt "out" in
  Sp.Netlist.vsource ckt "DD" a Sp.Netlist.ground (Sp.Source.Dc 1.2);
  Sp.Netlist.resistor ckt "L" a out 500e3;
  Sp.Netlist.capacitor ckt "O" out Sp.Netlist.ground 10e-15;
  mosfet ckt "1" ~drain:out ~gate:a ~source:Sp.Netlist.ground nmos;
  Sp.Netlist.mosfet_model ckt "2" ~drain:out ~gate:a ~source:Sp.Netlist.ground
    (Lattice_mosfet.Model.L3 (Lattice_mosfet.Level3.of_level1 nmos));
  let deck = emit_deck ckt ~title:"test deck" in
  (* "10f" would read back as a double one ulp away from 10e-15 *)
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "deck contains %S" frag) true (contains deck frag))
    [
      "* test deck"; "VDD a 0 DC 1.2"; "RL a out 500k"; "CO out 0 1e-14"; "M1 out a 0 0 NMOD";
      "LEVEL=1"; "LEVEL=3"; "THETA"; ".END";
    ]

let test_spice_export_of_lattice () =
  (* the full XOR3 circuit exports and mentions all 54 FETs *)
  let lc =
    Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(fun _ -> Sp.Source.Dc 0.0)
  in
  let deck = emit_deck lc.Sp.Lattice_circuit.netlist ~title:"xor3" in
  let count_lines prefix =
    List.length
      (List.filter
         (fun l -> String.length l > 0 && String.get l 0 = prefix)
         (String.split_on_char '\n' deck))
  in
  Alcotest.(check int) "54 M-cards" 54 (count_lines 'M');
  Alcotest.(check bool) "one model card" true (contains deck ".MODEL")

(* --- Dcop ---------------------------------------------------------------- *)

let test_dcop_divider () =
  let ckt = Sp.Netlist.create () in
  let top = Sp.Netlist.node ckt "top" and mid = Sp.Netlist.node ckt "mid" in
  Sp.Netlist.vsource ckt "V" top Sp.Netlist.ground (Sp.Source.Dc 10.0);
  Sp.Netlist.resistor ckt "R1" top mid 1e3;
  Sp.Netlist.resistor ckt "R2" mid Sp.Netlist.ground 3e3;
  let x = Sp.Dcop.solve ckt in
  check_close "mid" 1e-9 7.5 (Sp.Mna.voltage x mid)

let test_dcop_branch_current () =
  let ckt = Sp.Netlist.create () in
  let top = Sp.Netlist.node ckt "top" in
  Sp.Netlist.vsource ckt "V" top Sp.Netlist.ground (Sp.Source.Dc 10.0);
  Sp.Netlist.resistor ckt "R" top Sp.Netlist.ground 2e3;
  let x = Sp.Dcop.solve ckt in
  (* positive branch current flows into the + terminal of the source *)
  check_close "branch current" 1e-12 (-5e-3) x.(Sp.Netlist.vsource_row ckt 0)

let test_dcop_isource () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  Sp.Netlist.isource ckt "I" Sp.Netlist.ground a (Sp.Source.Dc 1e-3);
  Sp.Netlist.resistor ckt "R" a Sp.Netlist.ground 4e3;
  let x = Sp.Dcop.solve ckt in
  check_close "1mA * 4k" 1e-9 4.0 (Sp.Mna.voltage x a)

let test_dcop_diode_connected_fet () =
  (* diode-connected NMOS with a resistor from a 3V rail; verify against
     the analytic operating point *)
  let ckt = Sp.Netlist.create () in
  let vdd = Sp.Netlist.node ckt "vdd" and d = Sp.Netlist.node ckt "d" in
  Sp.Netlist.vsource ckt "V" vdd Sp.Netlist.ground (Sp.Source.Dc 3.0);
  Sp.Netlist.resistor ckt "R" vdd d 100e3;
  let p = { nmos with L1.lambda = 0.0 } in
  mosfet ckt "M" ~drain:d ~gate:d ~source:Sp.Netlist.ground p;
  let x = Sp.Dcop.solve ckt in
  let v = Sp.Mna.voltage x d in
  (* diode-connected => saturation: (3 - v)/R = beta/2 (v - vth)^2 *)
  let beta = L1.beta p in
  let residual = ((3.0 -. v) /. 100e3) -. (0.5 *. beta *. ((v -. p.L1.vth) ** 2.0)) in
  check_close "KCL at drain" 1e-9 0.0 residual;
  Alcotest.(check bool) "above vth" true (v > p.L1.vth)

let test_dcop_inverter_transfer () =
  (* resistor-load inverter: output near VDD at low input, near 0 at high *)
  let run vin =
    let ckt = Sp.Netlist.create () in
    let vdd = Sp.Netlist.node ckt "vdd" and g = Sp.Netlist.node ckt "g" and out = Sp.Netlist.node ckt "out" in
    Sp.Netlist.vsource ckt "VDD" vdd Sp.Netlist.ground (Sp.Source.Dc 1.2);
    Sp.Netlist.vsource ckt "VG" g Sp.Netlist.ground (Sp.Source.Dc vin);
    Sp.Netlist.resistor ckt "RL" vdd out 500e3;
    mosfet ckt "M" ~drain:out ~gate:g ~source:Sp.Netlist.ground nmos;
    let x = Sp.Dcop.solve ckt in
    Sp.Mna.voltage x out
  in
  Alcotest.(check bool) "low in, high out" true (run 0.0 > 1.19);
  Alcotest.(check bool) "high in, low out" true (run 1.2 < 0.2);
  Alcotest.(check bool) "monotone transfer" true (run 0.6 > run 0.9)

let test_dcop_floating_through_fets () =
  (* chain with internal nodes connected only via FETs: gmin keeps the
     system solvable even with every gate off *)
  let ckt = Sp.Netlist.create () in
  let top = Sp.Netlist.node ckt "top" and mid = Sp.Netlist.node ckt "mid" in
  Sp.Netlist.vsource ckt "V" top Sp.Netlist.ground (Sp.Source.Dc 1.0);
  mosfet ckt "M1" ~drain:top ~gate:Sp.Netlist.ground ~source:mid nmos;
  mosfet ckt "M2" ~drain:mid ~gate:Sp.Netlist.ground ~source:Sp.Netlist.ground nmos;
  let x = Sp.Dcop.solve ckt in
  let v = Sp.Mna.voltage x mid in
  Alcotest.(check bool) "mid between rails" true (v >= -1e-6 && v <= 1.0 +. 1e-6)

(* --- Transient -------------------------------------------------------------- *)

let rc_circuit () =
  (* series RC driven by a 1 V step (via pulse with tiny rise) *)
  let ckt = Sp.Netlist.create () in
  let inn = Sp.Netlist.node ckt "in" and out = Sp.Netlist.node ckt "out" in
  Sp.Netlist.vsource ckt "V" inn Sp.Netlist.ground
    (Sp.Source.Pulse
       { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 1e-12; fall = 1e-12; width = 1.0; period = 2.0 });
  Sp.Netlist.resistor ckt "R" inn out 1e3;
  Sp.Netlist.capacitor ckt "C" out Sp.Netlist.ground 1e-9;
  ckt

let test_transient_rc_charge () =
  (* tau = 1 us; compare V(out) with the analytic exponential *)
  let ckt = rc_circuit () in
  let r = Sp.Transient.run ckt ~h:20e-9 ~t_stop:5e-6 ~record:[ "out" ] () in
  let out = Sp.Transient.signal r "out" in
  let tau = 1e-6 in
  let worst = ref 0.0 in
  Array.iteri
    (fun i t ->
      let analytic = 1.0 -. exp (-.t /. tau) in
      worst := Float.max !worst (Float.abs (out.(i) -. analytic)))
    r.Sp.Transient.times;
  Alcotest.(check bool) (Printf.sprintf "max error %.2g < 2%%" !worst) true (!worst < 0.02)

let test_transient_trap_beats_be () =
  (* the trapezoidal rule is second order: with the same step it must beat
     backward Euler on the RC charge curve (the DESIGN.md ablation) *)
  let error integrator =
    let ckt = rc_circuit () in
    let options = { Sp.Transient.default_options with Sp.Transient.integrator } in
    let r = Sp.Transient.run ~options ckt ~h:100e-9 ~t_stop:3e-6 ~record:[ "out" ] () in
    let out = Sp.Transient.signal r "out" in
    let acc = ref 0.0 in
    Array.iteri
      (fun i t -> acc := Float.max !acc (Float.abs (out.(i) -. (1.0 -. exp (-.t /. 1e-6)))))
      r.Sp.Transient.times;
    !acc
  in
  let e_be = error Sp.Transient.Backward_euler in
  let e_trap = error Sp.Transient.Trapezoidal in
  Alcotest.(check bool)
    (Printf.sprintf "trap %.3g < BE %.3g" e_trap e_be)
    true (e_trap < e_be)

let test_transient_records_input () =
  let ckt = rc_circuit () in
  let r = Sp.Transient.run ckt ~h:50e-9 ~t_stop:1e-6 ~record:[ "in"; "out" ] () in
  let vin = Sp.Transient.signal r "in" in
  check_close "input recorded" 1e-9 1.0 vin.(Array.length vin - 1);
  Alcotest.(check bool) "unknown signal raises with names" true
    (match Sp.Transient.signal r "nope" with
    | exception Invalid_argument msg ->
      contains msg "nope" && contains msg "in" && contains msg "out"
    | _ -> false)

let test_transient_conserves_dc () =
  (* a circuit already at its operating point stays there *)
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  Sp.Netlist.vsource ckt "V" a Sp.Netlist.ground (Sp.Source.Dc 2.0);
  Sp.Netlist.resistor ckt "R" a Sp.Netlist.ground 1e3;
  let r = Sp.Transient.run ckt ~h:1e-9 ~t_stop:50e-9 ~record:[ "a" ] () in
  let va = Sp.Transient.signal r "a" in
  Array.iter (fun v -> check_close "steady" 1e-9 2.0 v) va

(* --- Measure ------------------------------------------------------------- *)

let test_measure_edges () =
  (* synthetic trapezoid: rise 10 ns, flat, fall 20 ns *)
  let times = Array.init 101 (fun i -> float_of_int i *. 1e-9) in
  let values =
    Array.map
      (fun t ->
        let tn = t /. 1e-9 in
        if tn <= 10.0 then tn /. 10.0
        else if tn <= 60.0 then 1.0
        else if tn <= 80.0 then 1.0 -. ((tn -. 60.0) /. 20.0)
        else 0.0)
      times
  in
  (match Sp.Measure.rise_time times values ~low:0.0 ~high:1.0 with
  | Some t -> check_close "rise = 80% of 10ns" 1e-10 8e-9 t
  | None -> Alcotest.fail "no rise");
  match Sp.Measure.fall_time times values ~low:0.0 ~high:1.0 with
  | Some t -> check_close "fall = 80% of 20ns" 1e-10 16e-9 t
  | None -> Alcotest.fail "no fall"

let test_measure_levels () =
  let times = Array.init 100 (fun i -> float_of_int i) in
  let values = Array.init 100 (fun i -> if i mod 2 = 0 then 0.1 else 0.9) in
  let low, high = Sp.Measure.steady_levels times values ~settle:0.0 in
  check_close "low" 1e-9 0.1 low;
  check_close "high" 1e-9 0.9 high

let test_measure_plot () =
  let times = Array.init 10 (fun i -> float_of_int i) in
  let values = Array.map (fun t -> sin t) times in
  let s = Sp.Measure.ascii_plot ~width:40 ~height:8 ~label:"sine" times values in
  Alcotest.(check bool) "plot non-empty" true (String.length s > 100)

let test_measure_no_crossing () =
  let times = Array.init 10 (fun i -> float_of_int i) in
  let flat = Array.make 10 0.5 in
  Alcotest.(check bool) "flat signal has no rise" true
    (Sp.Measure.rise_time times flat ~low:0.0 ~high:1.0 = None);
  Alcotest.(check bool) "flat signal has no fall" true
    (Sp.Measure.fall_time times flat ~low:0.0 ~high:1.0 = None)

let test_measure_boundary_samples () =
  (* thresholds met exactly at the first and last samples still count as
     crossings *)
  let times = [| 0.0; 1.0 |] in
  (match Sp.Measure.rise_time times [| 0.1; 0.9 |] ~low:0.0 ~high:1.0 with
  | Some t -> check_close "edge spans the whole record" 1e-12 1.0 t
  | None -> Alcotest.fail "boundary-sample rise missed");
  match Sp.Measure.fall_time times [| 0.9; 0.1 |] ~low:0.0 ~high:1.0 with
  | Some t -> check_close "falling edge symmetric" 1e-12 1.0 t
  | None -> Alcotest.fail "boundary-sample fall missed"

let test_measure_picks_clean_edge () =
  (* bouncy signal: only the final 10% crossing starts a clean edge, the
     earlier ones are interrupted by re-crossings *)
  let times = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let values = [| 0.0; 1.0; 0.0; 1.0; 2.0 |] in
  match Sp.Measure.rise_time times values ~low:0.0 ~high:2.0 with
  | Some t -> check_close "measures the last monotone edge" 1e-9 1.6 t
  | None -> Alcotest.fail "clean edge not found"

let test_measure_rejects_bad_span () =
  let times = [| 0.0; 1.0 |] and values = [| 0.0; 1.0 |] in
  Alcotest.check_raises "rise_time validates span"
    (Invalid_argument "Measure.rise_time: high must exceed low") (fun () ->
      ignore (Sp.Measure.rise_time times values ~low:1.0 ~high:1.0));
  Alcotest.check_raises "fall_time validates span"
    (Invalid_argument "Measure.fall_time: high must exceed low") (fun () ->
      ignore (Sp.Measure.fall_time times values ~low:2.0 ~high:1.0))

(* --- Ac --------------------------------------------------------------------- *)

let rc_lowpass () =
  let ckt = Sp.Netlist.create () in
  let inn = Sp.Netlist.node ckt "in" and out = Sp.Netlist.node ckt "out" in
  Sp.Netlist.vsource ckt "VIN" inn Sp.Netlist.ground (Sp.Source.Dc 0.0);
  Sp.Netlist.resistor ckt "R" inn out 1e3;
  Sp.Netlist.capacitor ckt "C" out Sp.Netlist.ground 1e-9;
  ckt

let test_ac_rc_corner () =
  let r =
    Sp.Ac.sweep (rc_lowpass ()) ~source:"VIN" ~output:"out" ~f_start:1e3 ~f_stop:1e8
      ~points_per_decade:20
  in
  check_close "dc gain 1" 1e-3 1.0 r.Sp.Ac.dc_gain;
  match Sp.Ac.f_3db r with
  | Some f ->
    let expect = 1.0 /. (2.0 *. Float.pi *. 1e3 *. 1e-9) in
    Alcotest.(check bool)
      (Printf.sprintf "f3db %.4g ~ %.4g" f expect)
      true
      (Float.abs (f -. expect) /. expect < 0.02);
    check_close "phase -45 deg at corner" 1.0 (-45.0) (Sp.Ac.phase_at r f)
  | None -> Alcotest.fail "no corner found"

let test_ac_rolloff () =
  (* single pole: one decade above the corner the gain is ~ -20 dB/dec *)
  let r =
    Sp.Ac.sweep (rc_lowpass ()) ~source:"VIN" ~output:"out" ~f_start:1e3 ~f_stop:1e8
      ~points_per_decade:20
  in
  let fs = Array.of_list (List.map (fun p -> p.Sp.Ac.freq_hz) r.Sp.Ac.points) in
  let mags = Array.of_list (List.map (fun p -> p.Sp.Ac.magnitude) r.Sp.Ac.points) in
  let magnitude_at f = Lattice_numerics.Interp.lookup fs mags f in
  let g1 = magnitude_at 1.59e6 and g2 = magnitude_at 1.59e7 in
  Alcotest.(check bool)
    (Printf.sprintf "rolloff ratio %.2f ~ 10" (g1 /. g2))
    true
    (g1 /. g2 > 8.0 && g1 /. g2 < 12.0)

let test_ac_errors () =
  Alcotest.(check bool) "unknown source" true
    (match
       Sp.Ac.sweep (rc_lowpass ()) ~source:"NOPE" ~output:"out" ~f_start:1e3 ~f_stop:1e6
         ~points_per_decade:5
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad range" true
    (match
       Sp.Ac.sweep (rc_lowpass ()) ~source:"VIN" ~output:"out" ~f_start:1e6 ~f_stop:1e3
         ~points_per_decade:5
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ac_divider_flat () =
  (* purely resistive circuits are frequency-flat *)
  let ckt = Sp.Netlist.create () in
  let inn = Sp.Netlist.node ckt "in" and out = Sp.Netlist.node ckt "out" in
  Sp.Netlist.vsource ckt "VIN" inn Sp.Netlist.ground (Sp.Source.Dc 1.0);
  Sp.Netlist.resistor ckt "R1" inn out 1e3;
  Sp.Netlist.resistor ckt "R2" out Sp.Netlist.ground 3e3;
  let r =
    Sp.Ac.sweep ckt ~source:"VIN" ~output:"out" ~f_start:1e3 ~f_stop:1e9 ~points_per_decade:5
  in
  List.iter (fun p -> check_close "flat 0.75" 1e-9 0.75 p.Sp.Ac.magnitude) r.Sp.Ac.points

let test_measure_integral () =
  let times = [| 0.0; 1.0; 2.0; 3.0 |] in
  (* the trapezoidal integral, through a 1 V supply drawing -i(t) *)
  let integral values = Sp.Measure.energy_from_supply ~vdd:1.0 times (Array.map Float.neg values) in
  check_close "constant" 1e-12 6.0 (integral [| 2.0; 2.0; 2.0; 2.0 |]);
  check_close "ramp" 1e-12 4.5 (integral [| 0.0; 1.0; 2.0; 3.0 |])

let test_energy_from_supply () =
  (* 2 V across 1 kOhm for 20 ns: E = V^2/R * t = 80 pJ *)
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  Sp.Netlist.vsource ckt "V1" a Sp.Netlist.ground (Sp.Source.Dc 2.0);
  Sp.Netlist.resistor ckt "R" a Sp.Netlist.ground 1e3;
  let r = Sp.Transient.run ckt ~h:1e-9 ~t_stop:20e-9 ~record:[] ~record_currents:[ "V1" ] () in
  let e = Sp.Measure.energy_from_supply ~vdd:2.0 r.Sp.Transient.times (Sp.Transient.branch_current r "V1") in
  check_close "80 pJ" 1e-15 80e-12 e

(* --- Fts ------------------------------------------------------------------ *)

let switch_resistance gate_v =
  (* measure the N-S resistance of a single switch *)
  let ckt = Sp.Netlist.create () in
  let n = Sp.Netlist.node ckt "n" and g = Sp.Netlist.node ckt "g" in
  Sp.Netlist.vsource ckt "VN" n Sp.Netlist.ground (Sp.Source.Dc 0.1) |> ignore;
  Sp.Netlist.vsource ckt "VG" g Sp.Netlist.ground (Sp.Source.Dc gate_v) |> ignore;
  Sp.Fts.instantiate ckt ~name:"X" ~north:n
    ~east:(Sp.Netlist.node ckt "e")
    ~south:Sp.Netlist.ground
    ~west:(Sp.Netlist.node ckt "w")
    ~gate:g Sp.Fts.default_types;
  let x = Sp.Dcop.solve ckt in
  let i = -.x.(Sp.Netlist.vsource_row ckt 0) in
  0.1 /. i

let test_fts_switching () =
  let r_on = switch_resistance 1.2 in
  let r_off = switch_resistance 0.0 in
  Alcotest.(check bool) (Printf.sprintf "on %.3g << off %.3g" r_on r_off) true
    (r_off > 1e4 *. r_on);
  Alcotest.(check bool) "on resistance is tens of kOhm" true (r_on > 1e3 && r_on < 1e6)

let test_fts_element_count () =
  let ckt = Sp.Netlist.create () in
  Sp.Fts.instantiate ckt ~name:"X"
    ~north:(Sp.Netlist.node ckt "n")
    ~east:(Sp.Netlist.node ckt "e")
    ~south:(Sp.Netlist.node ckt "s")
    ~west:(Sp.Netlist.node ckt "w")
    ~gate:(Sp.Netlist.node ckt "g")
    Sp.Fts.default_types;
  let fets, caps =
    List.fold_left
      (fun (m, c) e ->
        match e with
        | Sp.Netlist.Mosfet _ -> (m + 1, c)
        | Sp.Netlist.Capacitor _ -> (m, c + 1)
        | Sp.Netlist.Resistor _ | Sp.Netlist.Vsource _ | Sp.Netlist.Isource _ -> (m, c))
      (0, 0) (Sp.Netlist.elements ckt)
  in
  Alcotest.(check int) "six transistors" 6 fets;
  Alcotest.(check int) "four terminal caps" 4 caps

let test_fts_no_caps_option () =
  let ckt = Sp.Netlist.create () in
  Sp.Fts.instantiate ckt ~name:"X"
    ~north:(Sp.Netlist.node ckt "n")
    ~east:(Sp.Netlist.node ckt "e")
    ~south:(Sp.Netlist.node ckt "s")
    ~west:(Sp.Netlist.node ckt "w")
    ~gate:(Sp.Netlist.node ckt "g")
    ~terminal_cap:0.0 Sp.Fts.default_types;
  Alcotest.(check int) "no caps" 6 (List.length (Sp.Netlist.elements ckt))

let test_fts_terminal_symmetry () =
  (* conduct N->S and W->E: same resistance by symmetry of the 6-FET model *)
  let resistance ~from_t ~to_t =
    let ckt = Sp.Netlist.create () in
    let drive = Sp.Netlist.node ckt "drive" and g = Sp.Netlist.node ckt "g" in
    Sp.Netlist.vsource ckt "VD" drive Sp.Netlist.ground (Sp.Source.Dc 0.1);
    Sp.Netlist.vsource ckt "VG" g Sp.Netlist.ground (Sp.Source.Dc 1.2);
    let nodes = Array.init 4 (fun i ->
        if i = from_t then drive
        else if i = to_t then Sp.Netlist.ground
        else Sp.Netlist.node ckt (Printf.sprintf "f%d" i))
    in
    Sp.Fts.instantiate ckt ~name:"X" ~north:nodes.(0) ~east:nodes.(1) ~south:nodes.(2)
      ~west:nodes.(3) ~gate:g Sp.Fts.default_types;
    let x = Sp.Dcop.solve ckt in
    0.1 /. -.x.(Sp.Netlist.vsource_row ckt 0)
  in
  let r_ns = resistance ~from_t:0 ~to_t:2 in
  let r_we = resistance ~from_t:3 ~to_t:1 in
  check_close "N-S = W-E" (r_ns *. 1e-6) r_ns r_we;
  let r_ne = resistance ~from_t:0 ~to_t:1 in
  let r_sw = resistance ~from_t:2 ~to_t:3 in
  check_close "N-E = S-W" (r_ne *. 1e-6) r_ne r_sw

(* --- Lattice_circuit -------------------------------------------------------- *)

let test_lattice_circuit_xor3_dc () =
  (* every input combination at DC: output = NOT XOR3 *)
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  for m = 0 to 7 do
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
    let lc = Sp.Lattice_circuit.build grid ~stimulus in
    let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
    let out = Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out" in
    let v = Sp.Mna.voltage x out in
    let xor3 = (m land 1) lxor ((m lsr 1) land 1) lxor ((m lsr 2) land 1) = 1 in
    if xor3 then
      Alcotest.(check bool) (Printf.sprintf "combo %d low" m) true (v < 0.3)
    else Alcotest.(check bool) (Printf.sprintf "combo %d high" m) true (v > 1.0)
  done

let test_lattice_circuit_structure () =
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  let lc = Sp.Lattice_circuit.build grid ~stimulus:(fun _ -> Sp.Source.Dc 0.0) in
  let ckt = lc.Sp.Lattice_circuit.netlist in
  (* 9 switches x 6 FETs *)
  let fets =
    List.length
      (List.filter
         (function Sp.Netlist.Mosfet _ -> true | _ -> false)
         (Sp.Netlist.elements ckt))
  in
  Alcotest.(check int) "54 transistors" 54 fets;
  Alcotest.(check int) "3 inputs" 3 (Array.length lc.Sp.Lattice_circuit.input_nodes)

let test_lattice_circuit_const_grid () =
  (* an always-on 1x1 lattice pulls the output low; always-off stays high *)
  let low_grid, _ = Lattice_core.Grid.of_strings [ [ "1" ] ] in
  let lc = Sp.Lattice_circuit.build low_grid ~stimulus:(fun _ -> Sp.Source.Dc 0.0) in
  let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
  let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
  Alcotest.(check bool) "const 1 pulls low" true (v < 0.3);
  let high_grid, _ = Lattice_core.Grid.of_strings [ [ "0" ] ] in
  let lc = Sp.Lattice_circuit.build high_grid ~stimulus:(fun _ -> Sp.Source.Dc 0.0) in
  let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
  let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
  Alcotest.(check bool) "const 0 stays high" true (v > 1.1)

let test_lattice_circuit_maj3 () =
  (* second workload: majority gate *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  for m = 0 to 7 do
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
    let lc = Sp.Lattice_circuit.build grid ~stimulus in
    let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
    let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
    let ones = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) in
    if ones >= 2 then Alcotest.(check bool) (Printf.sprintf "maj %d low" m) true (v < 0.3)
    else Alcotest.(check bool) (Printf.sprintf "maj %d high" m) true (v > 1.0)
  done

let test_lattice_circuit_complementary_dc () =
  (* pull-up XNOR3 + pull-down XOR3: output = XNOR3, strong low, degraded
     high (n-type pass), and negligible supply current in every state *)
  for m = 0 to 7 do
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
    let lc =
      Sp.Lattice_circuit.build_complementary ~pull_up:Lattice_synthesis.Library.xnor3_3x3
        ~pull_down:Lattice_synthesis.Library.xor3_3x3 ~stimulus ()
    in
    let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
    let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
    let xor3 = (m land 1) lxor ((m lsr 1) land 1) lxor ((m lsr 2) land 1) = 1 in
    if xor3 then Alcotest.(check bool) (Printf.sprintf "combo %d low" m) true (v < 0.1)
    else
      Alcotest.(check bool)
        (Printf.sprintf "combo %d high (degraded)" m)
        true (v > 0.9 && v <= 1.2);
    (* static supply current: leakage only *)
    (match Sp.Netlist.vsource_index lc.Sp.Lattice_circuit.netlist "VDD" with
    | Some idx ->
      let i = Float.abs x.(Sp.Netlist.vsource_row lc.Sp.Lattice_circuit.netlist idx) in
      Alcotest.(check bool) (Printf.sprintf "combo %d leakage only" m) true (i < 1e-7)
    | None -> Alcotest.fail "VDD source missing")
  done

let test_transient_current_recording () =
  (* supply current of a resistor across a DC source: constant V/R *)
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" in
  Sp.Netlist.vsource ckt "V1" a Sp.Netlist.ground (Sp.Source.Dc 2.0);
  Sp.Netlist.resistor ckt "R" a Sp.Netlist.ground 1e3;
  let r = Sp.Transient.run ckt ~h:1e-9 ~t_stop:20e-9 ~record:[ "a" ] ~record_currents:[ "V1" ] () in
  let i = Sp.Transient.branch_current r "V1" in
  Array.iter (fun x -> check_close "constant -2mA" 1e-9 (-2e-3) x) i;
  Alcotest.(check bool) "unknown source rejected" true
    (match
       Sp.Transient.run ckt ~h:1e-9 ~t_stop:2e-9 ~record:[] ~record_currents:[ "nope" ] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fts_gate_cap () =
  let count_caps ckt =
    List.length
      (List.filter (function Sp.Netlist.Capacitor _ -> true | _ -> false) (Sp.Netlist.elements ckt))
  in
  let build gate_cap =
    let ckt = Sp.Netlist.create () in
    Sp.Fts.instantiate ckt ~name:"X"
      ~north:(Sp.Netlist.node ckt "n")
      ~east:(Sp.Netlist.node ckt "e")
      ~south:(Sp.Netlist.node ckt "s")
      ~west:(Sp.Netlist.node ckt "w")
      ~gate:(Sp.Netlist.node ckt "g")
      ~gate_cap Sp.Fts.default_types;
    ckt
  in
  Alcotest.(check int) "no gate caps by default" 4 (count_caps (build 0.0));
  Alcotest.(check int) "four gate caps" 8 (count_caps (build 4e-15))

let test_gate_cap_slows_input_edge () =
  (* with gate capacitance, the XOR3 transient still passes functionally *)
  let config =
    { Sp.Lattice_circuit.default_config with Sp.Lattice_circuit.gate_cap = 4e-15 }
  in
  let lc =
    Sp.Lattice_circuit.build ~config Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
  in
  let r = Sp.Transient.run lc.Sp.Lattice_circuit.netlist ~h:1e-9 ~t_stop:400e-9 ~record:[ "out" ] () in
  let out = Sp.Transient.signal r "out" in
  let ok = ref true in
  for k = 0 to 7 do
    let t = (float_of_int k +. 0.95) *. 50e-9 in
    let v = Sp.Measure.value_at r.Sp.Transient.times out t in
    let parity = (k land 1) lxor ((k lsr 1) land 1) lxor ((k lsr 2) land 1) in
    if not (Bool.equal (v > 0.6) (parity = 0)) then ok := false
  done;
  Alcotest.(check bool) "functional with gate caps" true !ok

(* end-to-end property: for random small assigned lattices and every input
   combination, the transistor circuit's DC output is low exactly when the
   abstract lattice model says the lattice conducts *)
let prop_circuit_matches_connectivity =
  let grid_gen =
    let open QCheck2.Gen in
    let entry_gen =
      frequency
        [
          (6, (let* v = int_range 0 2 and* p = bool in
               return (Lattice_core.Grid.Lit (v, p))));
          (1, return (Lattice_core.Grid.Const true));
          (1, return (Lattice_core.Grid.Const false));
        ]
    in
    let* rows = int_range 1 3 and* cols = int_range 1 3 in
    let* entries = array_size (return (rows * cols)) entry_gen in
    return (Lattice_core.Grid.create rows cols entries)
  in
  QCheck2.Test.make ~name:"DC circuit = lattice connectivity" ~count:40 grid_gen (fun grid ->
      let ok = ref true in
      for m = 0 to 7 do
        let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
        let lc = Sp.Lattice_circuit.build grid ~stimulus in
        let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
        let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
        let conducts = Lattice_core.Connectivity.eval grid m in
        if not (Bool.equal (v < 0.6) conducts) then ok := false
      done;
      !ok)

let test_lattice_circuit_level3_model () =
  (* with the level-3 switch models the XOR3 lattice still computes NOT
     XOR3 at DC, at a (weakly) higher V_OL since short-channel effects
     reduce the drive *)
  let config =
    { Sp.Lattice_circuit.default_config with
      Sp.Lattice_circuit.types = Sp.Fts.level3_types () }
  in
  let v_ol_l3 = ref 0.0 and v_ol_l1 = ref 0.0 in
  for m = 0 to 7 do
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
    let solve config =
      let lc = Sp.Lattice_circuit.build ~config Lattice_synthesis.Library.xor3_3x3 ~stimulus in
      let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
      Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out")
    in
    let v3 = solve config and v1 = solve Sp.Lattice_circuit.default_config in
    let xor3 = (m land 1) lxor ((m lsr 1) land 1) lxor ((m lsr 2) land 1) = 1 in
    if xor3 then begin
      Alcotest.(check bool) (Printf.sprintf "combo %d low" m) true (v3 < 0.6);
      v_ol_l3 := Float.max !v_ol_l3 v3;
      v_ol_l1 := Float.max !v_ol_l1 v1
    end
    else Alcotest.(check bool) (Printf.sprintf "combo %d high" m) true (v3 > 1.0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "level3 V_OL %.3f >= level1 V_OL %.3f" !v_ol_l3 !v_ol_l1)
    true
    (!v_ol_l3 >= !v_ol_l1 -. 1e-9)

(* --- Sparse engine vs the dense oracle ------------------------------------ *)

(* Production runs every solve on the compiled stamp plan with sparse LU.
   The dense path survives here as the oracle: [Mna.stamp] assembles the
   same MNA system as a dense matrix and [Oracle.solve_dense] solves it. *)

module Vec = Lattice_numerics.Vec
module Matrix = Lattice_numerics.Matrix
module Lu = Lattice_numerics.Lu
module Sparse = Lattice_numerics.Sparse

module Mna = struct
  include Sp.Mna

  (* conductance stamp between two nodes *)
  let stamp_conductance a n1 n2 g =
    let i1 = Sp.Netlist.node_index n1 and i2 = Sp.Netlist.node_index n2 in
    if i1 >= 0 then Matrix.add_to a i1 i1 g;
    if i2 >= 0 then Matrix.add_to a i2 i2 g;
    if i1 >= 0 && i2 >= 0 then begin
      Matrix.add_to a i1 i2 (-.g);
      Matrix.add_to a i2 i1 (-.g)
    end

  (* current [i] flowing out of node [n1] into node [n2] through a source *)
  let stamp_current b n1 n2 i =
    let i1 = Sp.Netlist.node_index n1 and i2 = Sp.Netlist.node_index n2 in
    if i1 >= 0 then b.(i1) <- b.(i1) -. i;
    if i2 >= 0 then b.(i2) <- b.(i2) +. i

  let stamp_mosfet a b x ~gmin (m : Lattice_mosfet.Model.t) ~drain ~gate ~source =
    let vd = voltage x drain and vg = voltage x gate and vs = voltage x source in
    (* source/drain swap: the terminal at the lower potential acts as source *)
    let reversed = vd < vs in
    let dn, sn = if reversed then (source, drain) else (drain, source) in
    let lin = fet_lin_create () in
    lin.vd <- vd;
    lin.vg <- vg;
    lin.vs <- vs;
    linearize_fet (L1.workspace_create ()) lin m;
    let gm = lin.gm and gds = lin.gds and ieq = lin.ieq in
    let idn = Sp.Netlist.node_index dn
    and isn = Sp.Netlist.node_index sn
    and ig = Sp.Netlist.node_index gate in
    let add r c v = if r >= 0 && c >= 0 then Matrix.add_to a r c v in
    if idn >= 0 then begin
      add idn ig gm;
      add idn idn gds;
      add idn isn (-.(gm +. gds));
      b.(idn) <- b.(idn) -. ieq
    end;
    if isn >= 0 then begin
      add isn ig (-.gm);
      add isn idn (-.gds);
      add isn isn (gm +. gds);
      b.(isn) <- b.(isn) +. ieq
    end;
    stamp_conductance a drain source gmin

  (* [(a, b)] of the Newton system at [x], dense. [gmin] is stamped
     drain-source across every MOSFET; [gshunt] adds a conductance from
     every node to ground; [caps = None] means DC (capacitors open). *)
  let stamp netlist ~x ~time ~gmin ~gshunt ~source_scale ~caps =
    let n = Sp.Netlist.unknowns netlist in
    let a = Matrix.create n n in
    let b = Array.make n 0.0 in
    if gshunt > 0.0 then
      for i = 0 to Sp.Netlist.num_nodes netlist - 1 do
        Matrix.add_to a i i gshunt
      done;
    let cap_ordinal = ref 0 in
    List.iter
      (fun e ->
        match e with
        | Sp.Netlist.Resistor { n1; n2; ohms; _ } -> stamp_conductance a n1 n2 (1.0 /. ohms)
        | Sp.Netlist.Capacitor { n1; n2; _ } -> (
          let k = !cap_ordinal in
          incr cap_ordinal;
          match caps with
          | None -> ()
          | Some { geq; ieq } ->
            stamp_conductance a n1 n2 geq.(k);
            stamp_current b n1 n2 ieq.(k))
        | Sp.Netlist.Vsource { npos; nneg; wave; index; _ } ->
          let row = Sp.Netlist.vsource_row netlist index in
          let ip = Sp.Netlist.node_index npos and ineg = Sp.Netlist.node_index nneg in
          if ip >= 0 then begin
            Matrix.add_to a ip row 1.0;
            Matrix.add_to a row ip 1.0
          end;
          if ineg >= 0 then begin
            Matrix.add_to a ineg row (-1.0);
            Matrix.add_to a row ineg (-1.0)
          end;
          b.(row) <- b.(row) +. (source_scale *. Sp.Source.value wave time)
        | Sp.Netlist.Isource { npos; nneg; wave; _ } ->
          stamp_current b npos nneg (source_scale *. Sp.Source.value wave time)
        | Sp.Netlist.Mosfet { drain; gate; source; model; _ } ->
          stamp_mosfet a b x ~gmin model ~drain ~gate ~source)
      (Sp.Netlist.elements netlist);
    (a, b)
end

(* Tightened solver tolerances so every operating point converges well
   below the fixed-point bounds checked against the oracle. *)
let tight_options = { Sp.Dcop.default_options with Sp.Dcop.reltol = 1e-9; abstol = 1e-12 }

(* A random mixed netlist: a grid of nodes joined by random resistors,
   MOSFET switches and capacitors, every node bled to ground so the DC
   operating point exists. *)
let random_mixed_netlist seed =
  let rng = Random.State.make [| seed; 0x5EED |] in
  let ckt = Sp.Netlist.create () in
  let rows = 2 + Random.State.int rng 3 in
  let cols = 2 + Random.State.int rng 3 in
  let node r c = Sp.Netlist.node ckt (Printf.sprintf "n%d_%d" r c) in
  let vin = Sp.Netlist.node ckt "in" in
  Sp.Netlist.vsource ckt "VDD" (node 0 0) Sp.Netlist.ground (Sp.Source.Dc 1.2);
  Sp.Netlist.vsource ckt "VIN" vin Sp.Netlist.ground
    (Sp.Source.Pulse
       { v1 = 0.0; v2 = 1.2; delay = 5e-9; rise = 2e-9; fall = 2e-9; width = 15e-9; period = 40e-9 });
  let nmos = { L1.kp = 2e-5; vth = 0.4; lambda = 0.02; w = 700e-9; l = 350e-9 } in
  let id = ref 0 in
  let fresh prefix = incr id; Printf.sprintf "%s%d" prefix !id in
  let connect a b =
    match Random.State.int rng 3 with
    | 0 -> Sp.Netlist.resistor ckt (fresh "R") a b (1e3 +. Random.State.float rng 1e5)
    | 1 ->
      let gate = if Random.State.bool rng then vin else node 0 0 in
      mosfet ckt (fresh "M") ~drain:a ~gate ~source:b nmos
    | _ ->
      Sp.Netlist.resistor ckt (fresh "R") a b (1e3 +. Random.State.float rng 1e4);
      Sp.Netlist.capacitor ckt (fresh "C") a b (1e-15 +. Random.State.float rng 9e-15)
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c < cols - 1 then connect (node r c) (node r (c + 1));
      if r < rows - 1 then connect (node r c) (node (r + 1) c);
      (* bleed + load keep every node biased *)
      Sp.Netlist.resistor ckt (fresh "RB") (node r c) Sp.Netlist.ground 1e6;
      Sp.Netlist.capacitor ckt (fresh "CB") (node r c) Sp.Netlist.ground
        (1e-15 +. Random.State.float rng 4e-15)
    done
  done;
  if Random.State.bool rng then
    Sp.Netlist.isource ckt "IB" (node (rows - 1) (cols - 1)) Sp.Netlist.ground
      (Sp.Source.Dc 1e-6);
  (ckt, Printf.sprintf "n%d_%d" (rows - 1) (cols - 1))

(* the VIN pulse of [random_mixed_netlist]: rise over 5-7 ns, fall over
   22-24 ns *)
let random_netlist_edges = [ 5e-9; 6e-9; 7e-9; 22e-9; 23e-9 ]

(* a fixed 6x6 lattice (36 four-terminal switches, 87 unknowns) *)
let lattice_6x6_grid () =
  let entries =
    Array.init 36 (fun i ->
        let r = i / 6 and c = i mod 6 in
        Lattice_core.Grid.Lit ((r + c) mod 3, (r * c) mod 2 = 0))
  in
  Lattice_core.Grid.create 6 6 entries

(* [exhaustive_stimulus ~bit_time:10e-9]: input k toggles every 2^k bit
   times with 0.2 ns transitions *)
let lattice_edges = [ 10e-9; 10.1e-9; 20.1e-9; 30.2e-9; 40.1e-9 ]

(* XOR3 with a stuck-open site (internal nodes tied only through
   1e10-ohm leaks) and a bridge: a near-singular netlist *)
let xor3_defects =
  [
    { Sp.Defects.row = 1; col = 1; kind = Sp.Defects.Stuck_open };
    { Sp.Defects.row = 0; col = 2; kind = Sp.Defects.Bridge (Sp.Defects.East, Sp.Defects.South) };
  ]

let cap_farads ckt =
  Array.of_list
    (List.filter_map
       (function Sp.Netlist.Capacitor { farads; _ } -> Some farads | _ -> None)
       (Sp.Netlist.elements ckt))

let inf_norm v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

(* worst |x - y| relative to the larger inf-norm (1 as the floor) *)
let rel_gap x y = Oracle.max_abs_diff x y /. Float.max 1.0 (Float.max (inf_norm x) (inf_norm y))

(* Dense augmented AC system [[G, -wB]; [wB, G]] x = e_source_row, with G
   stamped by [Mna.stamp] at [x_op] and B summed from the capacitors. *)
let dense_ac_solve ckt ~x_op ~w ~source_row =
  let g, _ =
    Mna.stamp ckt ~x:x_op ~time:0.0 ~gmin:Sp.Dcop.default_options.Sp.Dcop.gmin_final
      ~gshunt:0.0 ~source_scale:1.0 ~caps:None
  in
  let n = Sp.Netlist.unknowns ckt in
  let a = Matrix.create (2 * n) (2 * n) in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      Matrix.set a r c (Matrix.get g r c);
      Matrix.set a (n + r) (n + c) (Matrix.get g r c)
    done
  done;
  List.iter
    (function
      | Sp.Netlist.Capacitor { n1; n2; farads; _ } ->
        let i1 = Sp.Netlist.node_index n1 and i2 = Sp.Netlist.node_index n2 in
        let add r c coef =
          if r >= 0 && c >= 0 then begin
            Matrix.add_to a r (n + c) (-.(w *. coef));
            Matrix.add_to a (n + r) c (w *. coef)
          end
        in
        add i1 i1 farads;
        add i2 i2 farads;
        add i1 i2 (-.farads);
        add i2 i1 (-.farads)
      | _ -> ())
    (Sp.Netlist.elements ckt);
  let b = Array.make (2 * n) 0.0 in
  b.(source_row) <- 1.0;
  Oracle.solve_dense a b

(* Differential test of one linear system: the plan's assembled matrix and
   RHS equal [Mna.stamp] entry for entry (up to summation-order rounding,
   relative to the row's largest entry), and the plan's sparse solve
   equals [Oracle.solve_dense]. *)
let check_linear_system ~label ckt plan ~x ~time ~gmin ~gshunt ~source_scale ~caps =
  Sp.Stamp_plan.set_linear plan ~time ~gmin ~gshunt ~source_scale ~caps;
  Sp.Stamp_plan.assemble plan ~x;
  let a, b = Mna.stamp ckt ~x ~time ~gmin ~gshunt ~source_scale ~caps in
  let n = Array.length b in
  let p = Oracle.sparse_to_matrix ~n:(Sp.Stamp_plan.n plan) (Sp.Stamp_plan.matrix plan) in
  for r = 0 to n - 1 do
    let scale = ref 0.0 in
    for c = 0 to n - 1 do
      scale := Float.max !scale (Float.abs (Matrix.get a r c))
    done;
    for c = 0 to n - 1 do
      let d = Float.abs (Matrix.get a r c -. Matrix.get p r c) in
      if d > 1e-14 *. !scale then
        Alcotest.failf "%s: A(%d,%d) plan %.17g vs dense %.17g" label r c (Matrix.get p r c)
          (Matrix.get a r c)
    done
  done;
  let rhs = Sp.Stamp_plan.rhs plan in
  let bscale = inf_norm b in
  Array.iteri
    (fun i bi ->
      if Float.abs (bi -. rhs.(i)) > 1e-14 *. bscale then
        Alcotest.failf "%s: b(%d) plan %.17g vs dense %.17g" label i rhs.(i) bi)
    b;
  Sp.Stamp_plan.factor_and_solve plan;
  let gap = rel_gap (Sp.Stamp_plan.rhs plan) (Oracle.solve_dense a b) in
  if gap > 1e-9 then Alcotest.failf "%s: sparse vs dense solution gap %.3g" label gap

(* Call [f ~label ~x ~time ~gmin ~gshunt ~source_scale ~caps] at
   [iterates] random iterates in every stamping context production uses:
   DC (gmin, gshunt and source-stepping rungs), and backward-Euler and
   trapezoidal companions at [edges] (times on the stimulus edges).
   [after ~label x] runs once per iterate, after its contexts. *)
let iter_stamping_contexts ~name ~seed ~iterates ~edges ?(after = fun ~label:_ _ -> ()) ckt f =
  let rng = Random.State.make [| seed; 0xD1FF |] in
  let n = Sp.Netlist.unknowns ckt and nnodes = Sp.Netlist.num_nodes ckt in
  let farads = cap_farads ckt in
  let ncaps = Array.length farads in
  let gmin_final = Sp.Dcop.default_options.Sp.Dcop.gmin_final in
  for it = 0 to iterates - 1 do
    (* node voltages across every MOSFET region (both orientations),
       branch currents up to a milliamp *)
    let x =
      Array.init n (fun i ->
          if i < nnodes then Random.State.float rng 1.8 -. 0.3
          else Random.State.float rng 2e-3 -. 1e-3)
    in
    let check ~ctx ?(time = 0.0) ?(gmin = gmin_final) ?(gshunt = 0.0) ?(source_scale = 1.0)
        ?caps () =
      f ~label:(Printf.sprintf "%s iterate %d, %s" name it ctx) ~x ~time ~gmin ~gshunt
        ~source_scale ~caps
    in
    check ~ctx:"dc" ();
    check ~ctx:"dc gmin 1e-3" ~gmin:1e-3 ();
    check ~ctx:"dc gshunt 1e-4" ~gshunt:1e-4 ();
    check ~ctx:"dc source 0.3" ~source_scale:0.3 ();
    List.iter
      (fun time ->
        let dt = 1e-9 /. float_of_int (1 lsl Random.State.int rng 4) in
        let v_prev = Array.init ncaps (fun _ -> Random.State.float rng 2.4 -. 1.2) in
        let i_prev = Array.init ncaps (fun _ -> Random.State.float rng 2e-6 -. 1e-6) in
        let be_geq = Array.map (fun c -> c /. dt) farads in
        let be =
          { Sp.Mna.geq = be_geq; ieq = Array.mapi (fun k g -> -.(g *. v_prev.(k))) be_geq }
        in
        let tr_geq = Array.map (fun c -> 2.0 *. c /. dt) farads in
        let trap =
          {
            Sp.Mna.geq = tr_geq;
            ieq = Array.mapi (fun k g -> -.((g *. v_prev.(k)) +. i_prev.(k))) tr_geq;
          }
        in
        check ~ctx:(Printf.sprintf "backward Euler t=%.3g" time) ~time ~caps:be ();
        check ~ctx:(Printf.sprintf "trapezoidal t=%.3g" time) ~time ~caps:trap ())
      edges;
    after ~label:(Printf.sprintf "%s iterate %d" name it) x
  done

(* [check_linear_system] in every stamping context, plus the AC
   augmented system at each iterate. *)
let check_linear_parity ~name ~seed ~iterates ~edges ckt =
  let plan = Sp.Stamp_plan.compile ckt in
  (* AC: the sweep's compiled augmented solve at this iterate *)
  let ac ~label x =
    let source_row = Sp.Netlist.vsource_row ckt 0 in
    let solve = Sp.Ac.solver ckt plan ~x_op:x in
    List.iter
      (fun f ->
        let w = 2.0 *. Float.pi *. f in
        let gap = rel_gap (solve ~w ~source_row) (dense_ac_solve ckt ~x_op:x ~w ~source_row) in
        if gap > 1e-9 then Alcotest.failf "%s, ac f=%.3g: sparse vs dense gap %.3g" label f gap)
      [ 1e3; 1e6; 1e9; 1e11 ]
  in
  iter_stamping_contexts ~name ~seed ~iterates ~edges ~after:ac ckt (check_linear_system ckt plan)

(* The failure-path residual on the plan equals the dense oracle's
   [A x - b]: its inf-norm within 1e-12 relative, and the same worst
   nodes in the same order. *)
let check_residual ckt plan ~label ~x ~time ~gmin ~gshunt ~source_scale ~caps =
  let norm, worst =
    Sp.Dcop.residual_report ~plan ~time ~gmin ~gshunt ~source_scale ~caps ckt ~x
  in
  let a, b = Mna.stamp ckt ~x ~time ~gmin ~gshunt ~source_scale ~caps in
  let r = Array.mapi (fun i ri -> Float.abs (ri -. b.(i))) (Matrix.mat_vec a x) in
  let dense_norm = inf_norm r in
  if Float.abs (norm -. dense_norm) > 1e-12 *. dense_norm then
    Alcotest.failf "%s: residual norm plan %.17g vs dense %.17g" label norm dense_norm;
  let dense_worst =
    List.init (Sp.Netlist.num_nodes ckt) (fun i -> (i, r.(i)))
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun k (_, v) -> k < 3 && v > 0.0)
    |> List.map (fun (i, _) -> Sp.Netlist.node_name ckt (i + 1))
  in
  Alcotest.(check (list string)) (label ^ ": worst nodes") dense_worst (List.map fst worst)

let test_residual_parity () =
  for seed = 0 to 11 do
    let ckt, _ = random_mixed_netlist seed in
    iter_stamping_contexts ~name:(Printf.sprintf "seed %d" seed) ~seed ~iterates:4
      ~edges:random_netlist_edges ckt
      (check_residual ckt (Sp.Stamp_plan.compile ckt))
  done

(* One dense Newton step from a DC result: [Mna.stamp] at [x], then a
   dense factor and solve that eliminates the unknowns in the order the
   sparse LU does ([Oracle.min_degree] of the plan's pattern). A converged
   operating point is its own fixed point, so the step must not move it
   by more than [bound]. *)
let check_dense_fixed_point ~label ~bound ckt =
  match Sp.Dcop.solve_diag ~options:tight_options ckt with
  | Error f -> Alcotest.failf "%s: %s" label (Sp.Dcop.pp_failure f)
  | Ok (x, d) ->
    (* the node-shunt rung ends on a 1e-12 S shunt, not on zero *)
    let gshunt = if d.Sp.Dcop.strategy = Sp.Dcop.Gshunt_ramp then 1e-12 else 0.0 in
    let a, b =
      Mna.stamp ckt ~x ~time:0.0 ~gmin:tight_options.Sp.Dcop.gmin_final ~gshunt
        ~source_scale:1.0 ~caps:None
    in
    let order =
      Oracle.min_degree ~n:(Array.length x) (Sp.Stamp_plan.matrix (Sp.Stamp_plan.compile ckt))
    in
    let gap = Oracle.max_abs_diff x (Oracle.solve_dense_in_order ~order a b) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: dense Newton step moves the solution by %.3g < %g" label gap bound)
      true (gap < bound)

(* A warm Newton solve on a compiled plan allocates nothing: after the
   first factorization every buffer is plan-owned. Tracing and the flight
   ring are parked for the measured window (each records a span per
   solve) and restored afterwards, so the FTL_TRACE=1 pass still traces
   everything else. *)
let test_newton_allocation_free () =
  let lc =
    Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(fun _ -> Sp.Source.Dc 1.2)
  in
  let netlist = lc.Sp.Lattice_circuit.netlist in
  let options = Sp.Dcop.default_options in
  let plan = Sp.Stamp_plan.compile netlist in
  let x0 = Sp.Dcop.solve ~plan netlist in
  let dst = Array.make (Array.length x0) 0.0 in
  let solve () =
    ignore
      (Sp.Dcop.newton_into ~plan netlist ~options ~x0 ~dst ~time:0.0
         ~gmin:options.Sp.Dcop.gmin_final ~source_scale:1.0 ~caps:None)
  in
  (* warm-up: the first factorization runs the symbolic analysis *)
  solve ();
  let trace_was = Lattice_obs.Trace.on () and ring_was = Lattice_obs.Ring.on () in
  Lattice_obs.Trace.set_enabled false;
  Lattice_obs.Ring.set_enabled false;
  let runs = 100 in
  let per_solve =
    Fun.protect
      ~finally:(fun () ->
        Lattice_obs.Trace.set_enabled trace_was;
        Lattice_obs.Ring.set_enabled ring_was)
      (fun () ->
        let w0 = Gc.minor_words () in
        for _ = 1 to runs do
          solve ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int runs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per warm solve (under 16)" per_solve)
    true (per_solve < 16.0)

let test_sparse_dense_dcop_parity () =
  for seed = 0 to 11 do
    let ckt, _ = random_mixed_netlist seed in
    check_dense_fixed_point ~label:(Printf.sprintf "seed %d" seed) ~bound:1e-9 ckt
  done

let test_sparse_dense_transient_parity () =
  for seed = 0 to 11 do
    let ckt, out_name = random_mixed_netlist seed in
    check_linear_parity ~name:(Printf.sprintf "seed %d" seed) ~seed ~iterates:4
      ~edges:random_netlist_edges ckt;
    let r =
      Sp.Transient.run ~options:{ Sp.Transient.default_options with Sp.Transient.dc = tight_options }
        ckt ~h:1e-9 ~t_stop:60e-9 ~record:[ out_name; "in" ] ~record_currents:[ "VDD" ] ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: newton iterations counted" seed)
      true
      (r.Sp.Transient.newton_iterations_total >= 60)
  done

let test_lattice_6x6_sparse_matches_dense () =
  let lc =
    Sp.Lattice_circuit.build (lattice_6x6_grid ())
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:10e-9)
  in
  check_linear_parity ~name:"6x6" ~seed:66 ~iterates:3 ~edges:lattice_edges
    lc.Sp.Lattice_circuit.netlist

let test_ac_sparse_matches_dense () =
  (* RC low-pass plus a FET load and a padded RC ladder, swept over 4
     decades against a dense augmented solve at the same operating point *)
  let ckt = Sp.Netlist.create () in
  let vin = Sp.Netlist.node ckt "in" and out = Sp.Netlist.node ckt "out" in
  Sp.Netlist.vsource ckt "V1" vin Sp.Netlist.ground (Sp.Source.Dc 0.6);
  Sp.Netlist.resistor ckt "R1" vin out 10e3;
  Sp.Netlist.capacitor ckt "C1" out Sp.Netlist.ground 1e-12;
  mosfet ckt "M1" ~drain:out ~gate:vin ~source:Sp.Netlist.ground nmos;
  let prev = ref out in
  for k = 1 to 20 do
    let n = Sp.Netlist.node ckt (Printf.sprintf "pad%d" k) in
    Sp.Netlist.resistor ckt (Printf.sprintf "RP%d" k) !prev n 1e3;
    Sp.Netlist.capacitor ckt (Printf.sprintf "CP%d" k) n Sp.Netlist.ground 1e-13;
    prev := n
  done;
  let r =
    Sp.Ac.sweep ckt ~source:"V1" ~output:"out" ~f_start:1e3 ~f_stop:1e7 ~points_per_decade:5
  in
  let x_op = Sp.Dcop.solve ckt in
  let n = Sp.Netlist.unknowns ckt and k = Sp.Netlist.node_index out in
  let source_row = Sp.Netlist.vsource_row ckt 0 in
  List.iter
    (fun (p : Sp.Ac.point) ->
      let x = dense_ac_solve ckt ~x_op ~w:(2.0 *. Float.pi *. p.Sp.Ac.freq_hz) ~source_row in
      let re = x.(k) and im = x.(n + k) in
      check_close
        (Printf.sprintf "magnitude at %.3g Hz" p.Sp.Ac.freq_hz)
        1e-9 (sqrt ((re *. re) +. (im *. im))) p.Sp.Ac.magnitude;
      check_close
        (Printf.sprintf "phase at %.3g Hz" p.Sp.Ac.freq_hz)
        1e-7 (Float.atan2 im re *. 180.0 /. Float.pi) p.Sp.Ac.phase_deg)
    r.Sp.Ac.points

(* --- Structured diagnostics ---------------------------------------------- *)

let test_transient_partial_final_step () =
  (* t_stop that is not a multiple of h: the grid gets one documented
     partial final step landing exactly on t_stop *)
  let sample_times ~h ~t_stop =
    (Sp.Transient.run (rc_circuit ()) ~h ~t_stop ~record:[ "out" ] ()).Sp.Transient.times
  in
  let ts = sample_times ~h:1e-9 ~t_stop:10.5e-9 in
  Alcotest.(check int) "10 full steps + partial" 12 (Array.length ts);
  check_close "last sample is t_stop" 1e-21 10.5e-9 ts.(Array.length ts - 1);
  for k = 1 to Array.length ts - 1 do
    Alcotest.(check bool) "strictly increasing" true (ts.(k) > ts.(k - 1))
  done;
  (* an exact multiple keeps the uniform grid *)
  let ts = sample_times ~h:1e-9 ~t_stop:10e-9 in
  Alcotest.(check int) "uniform grid" 11 (Array.length ts);
  check_close "pinned to t_stop" 1e-21 10e-9 ts.(10);
  (* rounding noise within relative tolerance does not grow an extra step *)
  let ts = sample_times ~h:1e-9 ~t_stop:(10e-9 *. (1.0 +. 1e-9)) in
  Alcotest.(check int) "near-multiple absorbed" 11 (Array.length ts);
  (* and the physics is right on the padded grid: RC charge to analytic *)
  let r = Sp.Transient.run (rc_circuit ()) ~h:20e-9 ~t_stop:2.51e-6 ~record:[ "out" ] () in
  let times = r.Sp.Transient.times in
  check_close "transient ends at t_stop" 1e-18 2.51e-6 times.(Array.length times - 1);
  let v = (Sp.Transient.signal r "out").(Array.length times - 1) in
  check_close "RC charge at partial step" 1e-3 (1.0 -. exp (-2.51e-6 /. 1e-6)) v

let test_solve_diag_plain_wins () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" and b = Sp.Netlist.node ckt "b" in
  Sp.Netlist.vsource ckt "V1" a Sp.Netlist.ground (Sp.Source.Dc 2.0);
  Sp.Netlist.resistor ckt "R1" a b 1e3;
  Sp.Netlist.resistor ckt "R2" b Sp.Netlist.ground 1e3;
  match Sp.Dcop.solve_diag ckt with
  | Error f -> Alcotest.fail ("divider failed: " ^ Sp.Dcop.pp_failure f)
  | Ok (x, d) ->
    check_close "divider voltage" 1e-9 1.0 (Sp.Mna.voltage x b);
    Alcotest.(check bool) "plain Newton wins" true (d.Sp.Dcop.strategy = Sp.Dcop.Plain);
    Alcotest.(check int) "one attempt" 1 (List.length d.Sp.Dcop.attempts);
    Alcotest.(check bool) "iterations counted" true (d.Sp.Dcop.newton_iterations >= 1)

(* a circuit no rung can solve in so few iterations: the vsource forces a
   1.2 V jump but every Newton step is clamped to 1e-6 V *)
let unsolvable_circuit () =
  let ckt = Sp.Netlist.create () in
  let vdd = Sp.Netlist.node ckt "vdd" and d = Sp.Netlist.node ckt "d" in
  Sp.Netlist.vsource ckt "V1" vdd Sp.Netlist.ground (Sp.Source.Dc 1.2);
  Sp.Netlist.resistor ckt "R1" vdd d 10e3;
  mosfet ckt "M1" ~drain:d ~gate:d ~source:Sp.Netlist.ground nmos;
  ckt

let hopeless_options =
  { Sp.Dcop.default_options with Sp.Dcop.max_iterations = 1; damping = 1e-6 }

let test_solve_diag_failure_ladder () =
  let ckt = unsolvable_circuit () in
  match Sp.Dcop.solve_diag ~options:hopeless_options ckt with
  | Ok _ -> Alcotest.fail "expected every strategy to fail"
  | Error f ->
    (* all 7 rungs of the ladder were tried, in order *)
    Alcotest.(check int) "7 failed attempts" 7 (List.length f.Sp.Dcop.attempts);
    Alcotest.(check bool) "ladder order" true
      (List.map fst f.Sp.Dcop.attempts
      = Sp.Dcop.
          [ Plain; Gmin_stepping; Damped_plain; Damped_gmin; Source_stepping; Damped_source; Gshunt_ramp ]);
    List.iter
      (fun (s, iters) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s spent iterations" (Sp.Dcop.strategy_name s))
          true (iters >= 1))
      f.Sp.Dcop.attempts;
    Alcotest.(check bool) "residual norm positive and finite" true
      (Float.is_finite f.Sp.Dcop.residual_norm && f.Sp.Dcop.residual_norm > 0.0);
    Alcotest.(check bool) "worst nodes named" true (f.Sp.Dcop.worst_nodes <> []);
    List.iter
      (fun (name, r) ->
        Alcotest.(check bool) (Printf.sprintf "node %s finite residual" name) true
          (Float.is_finite r && r > 0.0))
      f.Sp.Dcop.worst_nodes;
    Alcotest.(check bool) "rendered failure mentions the ladder" true
      (String.length (Sp.Dcop.pp_failure f) > 20)

let test_legacy_solve_raises_with_diagnostics () =
  let ckt = unsolvable_circuit () in
  let f =
    match Sp.Dcop.solve_diag ~options:hopeless_options ckt with
    | Error f -> f
    | Ok _ -> Alcotest.fail "expected every strategy to fail"
  in
  Alcotest.(check int) "full ladder in the diagnostics" 7 (List.length f.Sp.Dcop.attempts);
  match Sp.Dcop.solve ~options:hopeless_options ckt with
  | exception Sp.Dcop.Convergence_failure msg ->
    (* the raised message renders exactly the failure solve_diag returns *)
    Alcotest.(check string) "message carries the rendered failure"
      ("all DC strategies failed: " ^ Sp.Dcop.pp_failure f)
      msg
  | _ -> Alcotest.fail "legacy solve should raise"

let test_transient_diag_failure () =
  let ckt = unsolvable_circuit () in
  match
    Sp.Transient.run_diag
      ~options:{ Sp.Transient.default_options with Sp.Transient.dc = hopeless_options }
      ckt ~h:1e-9 ~t_stop:4e-9 ~record:[ "d" ] ()
  with
  | Ok _ -> Alcotest.fail "expected the initial operating point to fail"
  | Error f ->
    check_close "failed at t = 0" 1e-18 0.0 f.Sp.Transient.at_time;
    Alcotest.(check bool) "dc failure attached" true (f.Sp.Transient.dc_failure.Sp.Dcop.attempts <> []);
    Alcotest.(check bool) "no dc strategy recorded" true
      (f.Sp.Transient.stats.Sp.Transient.dc_strategy = None)

let test_transient_run_diag_stats () =
  let ckt = Sp.Netlist.create () in
  let a = Sp.Netlist.node ckt "a" and b = Sp.Netlist.node ckt "b" in
  Sp.Netlist.vsource ckt "V1" a Sp.Netlist.ground (Sp.Source.Dc 1.0);
  Sp.Netlist.resistor ckt "R" a b 1e3;
  Sp.Netlist.capacitor ckt "C" b Sp.Netlist.ground 1e-9;
  match Sp.Transient.run_diag ckt ~h:1e-9 ~t_stop:20e-9 ~record:[ "b" ] () with
  | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f.Sp.Transient.dc_failure)
  | Ok r ->
    let s = r.Sp.Transient.stats in
    Alcotest.(check int) "20 steps taken" 20 s.Sp.Transient.steps_taken;
    Alcotest.(check int) "no halvings on a linear circuit" 0 s.Sp.Transient.halvings;
    Alcotest.(check bool) "no halving events either" true (s.Sp.Transient.halving_events = []);
    check_close "min dt is h" 1e-21 1e-9 s.Sp.Transient.min_dt;
    Alcotest.(check bool) "dc strategy recorded" true
      (s.Sp.Transient.dc_strategy = Some Sp.Dcop.Plain);
    Alcotest.(check bool) "newton iterations accumulated" true
      (r.Sp.Transient.newton_iterations_total >= 20)

(* --- Defect injection ----------------------------------------------------- *)

let dc_out_voltage ?(defects = []) grid =
  let lc =
    Sp.Defects.build ~defects grid ~stimulus:(fun _ -> Sp.Source.Dc 0.0)
  in
  let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
  Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out")

let test_defect_stuck_short_conducts () =
  (* a const-0 1x1 lattice normally leaves the output high; a stuck-short
     switch pulls it low regardless of the gate *)
  let grid, _ = Lattice_core.Grid.of_strings [ [ "0" ] ] in
  Alcotest.(check bool) "healthy stays high" true (dc_out_voltage grid > 1.1);
  let v =
    dc_out_voltage ~defects:[ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_short } ] grid
  in
  Alcotest.(check bool) (Printf.sprintf "stuck-short pulls low (%.3f V)" v) true (v < 0.1)

let test_defect_stuck_open_blocks () =
  (* a const-1 1x1 lattice normally pulls the output low; a stuck-open
     switch leaves it high *)
  let grid, _ = Lattice_core.Grid.of_strings [ [ "1" ] ] in
  Alcotest.(check bool) "healthy pulls low" true (dc_out_voltage grid < 0.3);
  let v =
    dc_out_voltage ~defects:[ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_open } ] grid
  in
  Alcotest.(check bool) (Printf.sprintf "stuck-open stays high (%.3f V)" v) true (v > 1.1)

let count_elements ckt =
  List.fold_left
    (fun (m, r, c) e ->
      match e with
      | Sp.Netlist.Mosfet _ -> (m + 1, r, c)
      | Sp.Netlist.Resistor _ -> (m, r + 1, c)
      | Sp.Netlist.Capacitor _ -> (m, r, c + 1)
      | Sp.Netlist.Vsource _ | Sp.Netlist.Isource _ -> (m, r, c))
    (0, 0, 0) (Sp.Netlist.elements ckt)

let test_defect_element_counts () =
  let grid, _ = Lattice_core.Grid.of_strings [ [ "1" ] ] in
  let build defects = (Sp.Defects.build ~defects grid ~stimulus:(fun _ -> Sp.Source.Dc 0.0)).Sp.Lattice_circuit.netlist in
  let m0, r0, c0 = count_elements (build []) in
  Alcotest.(check int) "healthy: 6 FETs" 6 m0;
  (* a bridge keeps the switch and adds one resistor *)
  let m, r, c =
    count_elements
      (build [ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Bridge (Sp.Defects.North, Sp.Defects.East) } ])
  in
  Alcotest.(check int) "bridge keeps FETs" m0 m;
  Alcotest.(check int) "bridge adds a resistor" (r0 + 1) r;
  Alcotest.(check int) "bridge keeps caps" c0 c;
  (* a gate leak likewise *)
  let m, r, _ =
    count_elements
      (build [ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Gate_leak Sp.Defects.South } ])
  in
  Alcotest.(check int) "leak keeps FETs" m0 m;
  Alcotest.(check int) "leak adds a resistor" (r0 + 1) r;
  (* a broken terminal keeps the switch but reroutes one terminal through
     a series resistor *)
  let m, r, c =
    count_elements
      (build [ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Broken_terminal Sp.Defects.North } ])
  in
  Alcotest.(check int) "broken keeps FETs" m0 m;
  Alcotest.(check int) "broken adds series resistor" (r0 + 1) r;
  Alcotest.(check int) "broken keeps caps" c0 c;
  (* stuck-open removes the FETs, keeps the terminal caps, adds 2 leakage
     resistors; stuck-short adds 4 shorts *)
  let m, r, c =
    count_elements (build [ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_open } ])
  in
  Alcotest.(check int) "open removes FETs" 0 m;
  Alcotest.(check int) "open: 2 leakage resistors" (r0 + 2) r;
  Alcotest.(check int) "open keeps terminal caps" c0 c;
  let m, r, _ =
    count_elements (build [ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_short } ])
  in
  Alcotest.(check int) "short removes FETs" 0 m;
  Alcotest.(check int) "short: 4 short resistors" (r0 + 4) r

let test_defect_universe_size () =
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  Alcotest.(check int) "14 defects per site" (14 * 9)
    (List.length (Sp.Defects.single_defects grid));
  Alcotest.(check int) "restricted universe"
    (2 * 9)
    (List.length
       (Sp.Defects.single_defects ~classes:[ Sp.Defects.Opens; Sp.Defects.Shorts ] grid))

let test_sparse_dense_defect_parity () =
  (* the defect-injected near-singular XOR3 stresses the conditioning of
     both solvers the same way: every DC combo is a fixed point of the
     dense oracle, and the plan's linear systems match it in every
     stamping context *)
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  for m = 0 to 7 do
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
    let lc = Sp.Defects.build ~defects:xor3_defects grid ~stimulus in
    check_dense_fixed_point ~label:(Printf.sprintf "combo %d" m) ~bound:1e-8
      lc.Sp.Lattice_circuit.netlist
  done;
  let lc =
    Sp.Defects.build ~defects:xor3_defects grid
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:10e-9)
  in
  check_linear_parity ~name:"defective XOR3" ~seed:3 ~iterates:6 ~edges:lattice_edges
    lc.Sp.Lattice_circuit.netlist

(* --- Series_chain ------------------------------------------------------------ *)

let test_series_monotone_decrease () =
  let prev = ref infinity in
  for n = 1 to 8 do
    let i = Sp.Series_chain.current ~n ~v_top:1.2 () in
    Alcotest.(check bool) (Printf.sprintf "I(%d) < I(%d)" n (n - 1)) true (i < !prev);
    Alcotest.(check bool) "positive" true (i > 0.0);
    prev := i
  done

let test_series_voltage_monotone () =
  let v5 = Sp.Series_chain.voltage_for_current ~n:5 ~i_target:5.5e-6 () in
  let v10 = Sp.Series_chain.voltage_for_current ~n:10 ~i_target:5.5e-6 () in
  Alcotest.(check bool) "more switches need more voltage" true (v10 > v5)

let test_series_build_validates () =
  Alcotest.(check bool) "n = 0 rejected" true
    (match Sp.Series_chain.current ~n:0 ~v_top:1.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Rebinding source waves: one plan per circuit ------------------------- *)

let dc_state = Sp.Lattice_circuit.state_stimulus

(* every bit of a DC solve: solution, ladder and Newton counts *)
let solve_bits ?plan ?x0 netlist =
  Marshal.to_string (Sp.Dcop.solve_diag ?plan ?x0 netlist) [ Marshal.No_sharing ]

let maj3_at m =
  (Sp.Lattice_circuit.build Lattice_synthesis.Library.maj3_2x3 ~stimulus:(dc_state ~vdd:1.2 m))
    .Sp.Lattice_circuit.netlist

let test_plan_rebinds_state () =
  (* a plan compiled at state 0 and handed state 7's netlist used to
     solve state 0's circuit: 1.199998 V instead of 0.025201 V *)
  let plan = Sp.Stamp_plan.compile (maj3_at 0) in
  let net = maj3_at 7 in
  (match Sp.Dcop.solve_diag ~plan net with
  | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)
  | Ok (x, _) ->
    let v = Sp.Mna.voltage x (Sp.Netlist.node net "out") in
    Alcotest.(check bool) (Printf.sprintf "state 7 pulls the output low (%g V)" v) true (v < 0.1));
  Alcotest.(check bool) "bit-identical to a fresh solve" true
    (String.equal (solve_bits ~plan net) (solve_bits net))

let test_plan_rejects_other_structure () =
  let base = maj3_at 0 in
  let plan = Sp.Stamp_plan.compile base in
  let rejects name net =
    match Sp.Dcop.solve_diag ~plan net with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (name ^ ": names the plan") true
        (String.starts_with ~prefix:"Stamp_plan.rebind" msg)
    | _ -> Alcotest.fail (name ^ ": solved a netlist of another structure")
  in
  (* used to die with Invalid_argument "index out of bounds" *)
  rejects "xor3 3x3"
    (Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3 ~stimulus:(dc_state ~vdd:1.2 0))
      .Sp.Lattice_circuit.netlist;
  rejects "same topology, another pull-up"
    (Sp.Lattice_circuit.build
       ~config:{ Sp.Lattice_circuit.default_config with Sp.Lattice_circuit.pullup_ohms = 400e3 }
       Lattice_synthesis.Library.maj3_2x3 ~stimulus:(dc_state ~vdd:1.2 0))
      .Sp.Lattice_circuit.netlist;
  (* a rejected rebind leaves the plan usable *)
  Alcotest.(check bool) "plan intact after the rejection" true
    (String.equal (solve_bits ~plan base) (solve_bits base))

(* maj3 with site (0,0) mismatched (type A Vth +30 mV, type B -30 mV) and
   a cracked south terminal at (1,0): states 1 and 3 fail plain Newton *)
let mismatched_die_at m =
  let shift dv = function
    | Lattice_mosfet.Model.L1 p -> Lattice_mosfet.Model.L1 { p with L1.vth = p.L1.vth +. dv }
    | m -> m
  in
  let t = Sp.Fts.default_types in
  let types_of_site r c =
    if r = 0 && c = 0 then
      { Sp.Fts.type_a = shift 0.03 t.Sp.Fts.type_a; type_b = shift (-0.03) t.Sp.Fts.type_b }
    else t
  in
  Sp.Defects.build ~types_of_site
    ~defects:[ { Sp.Defects.row = 1; col = 0; kind = Sp.Defects.Broken_terminal Sp.Defects.South } ]
    Lattice_synthesis.Library.maj3_2x3 ~stimulus:(dc_state ~vdd:1.2 m)

let test_plan_first_factorization_memo () =
  (* after [rebind] the next factorization is a solve's first: from
     any start it takes its pivot order from the memo of the matrix at
     x = 0, so only the plan's first solve analyzes *)
  let module M = Lattice_obs.Metrics in
  let was_on = M.on () in
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled was_on)
    (fun () ->
      let full () = M.Counter.get (M.counter "numerics.lu_full_factorizations") in
      let plan = Sp.Stamp_plan.compile (maj3_at 0) in
      let solve ?x0 m =
        let f0 = full () in
        match Sp.Dcop.solve_diag ~plan ?x0 (maj3_at m) with
        | Ok (x, _) -> (x, full () - f0)
        | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)
      in
      Alcotest.(check int) "first solve analyzes" 1 (snd (solve 0));
      Alcotest.(check bool) "a solve leaves a factorization" true (Sp.Stamp_plan.lu_stats plan <> None);
      Sp.Stamp_plan.rebind plan (maj3_at 5);
      Alcotest.(check bool) "rebind forgets it" true (Sp.Stamp_plan.lu_stats plan = None);
      for m = 1 to 7 do
        Alcotest.(check int) (Printf.sprintf "state %d from zero: memo" m) 0 (snd (solve m))
      done;
      (* all inputs high: the switches conduct at this start *)
      let x0, _ = solve 7 in
      Alcotest.(check int) "warm start: memo" 0 (snd (solve ~x0 6)))

let test_plan_state_sequence () =
  (* one plan walked over input states in any order, on rebound
     netlists, is bitwise a fresh build and a fresh solve per state *)
  let order = [ 0; 1; 2; 3; 4; 5; 6; 7; 7; 3; 1; 0; 6; 3 ] in
  List.iter
    (fun (name, at) ->
      let base : Sp.Lattice_circuit.t = at 0 in
      let plan = Sp.Stamp_plan.compile base.Sp.Lattice_circuit.netlist in
      let fallbacks = ref 0 in
      List.iter
        (fun m ->
          let fresh = (at m).Sp.Lattice_circuit.netlist in
          (match Sp.Dcop.solve_diag fresh with
          | Ok (_, d) when d.Sp.Dcop.strategy <> Sp.Dcop.Plain -> incr fallbacks
          | Ok _ | Error _ -> ());
          let rebound =
            (Sp.Lattice_circuit.rebind base ~stimulus:(dc_state ~vdd:1.2 m)).Sp.Lattice_circuit.netlist
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: state %d" name m)
            true
            (String.equal (solve_bits ~plan rebound) (solve_bits fresh));
          (* warm-started from another state's solution: the pivot order
             of the matrix at x = 0 comes from the memo here and from a
             fresh analysis without a plan, and the bits agree *)
          let x0 =
            match Sp.Dcop.solve_diag (at (7 - m)).Sp.Lattice_circuit.netlist with
            | Ok (x, _) -> x
            | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: state %d from state %d's solution" name m (7 - m))
            true
            (String.equal (solve_bits ~plan ~x0 rebound) (solve_bits ~x0 fresh)))
        order;
      if name = "mismatched die" then
        Alcotest.(check bool) "the die's solves fall back past plain" true (!fallbacks >= 3))
    [
      ( "maj3",
        fun m ->
          Sp.Lattice_circuit.build Lattice_synthesis.Library.maj3_2x3 ~stimulus:(dc_state ~vdd:1.2 m)
      );
      ("mismatched die", mismatched_die_at);
    ]

(* a grid over [nvars] variables that mentions each of them, with at
   least one complemented literal and some constant sites *)
let random_grid st ~nvars =
  let rows = 2 + Random.State.int st 2 and cols = 3 + Random.State.int st 2 in
  let entry i =
    if i < nvars then Lattice_core.Grid.Lit (i, i > 0 && Random.State.bool st)
    else
      match Random.State.int st 8 with
      | 0 -> Lattice_core.Grid.Const true
      | 1 -> Lattice_core.Grid.Const false
      | _ -> Lattice_core.Grid.Lit (Random.State.int st nvars, Random.State.bool st)
  in
  Lattice_core.Grid.create rows cols (Array.init (rows * cols) entry)

let test_rebind_matches_fresh_build () =
  (* for every state: same digest, same cache key, same deck text, and
     the base is left alone *)
  let st = Random.State.make [| 15 |] in
  let deck_text net = Lattice_deck.Deck.emit (Lattice_deck.Deck.of_netlist ~title:"rebind" net) in
  let broken grid =
    [
      { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Broken_terminal Sp.Defects.East };
      {
        Sp.Defects.row = grid.Lattice_core.Grid.rows - 1;
        col = 1;
        kind = Sp.Defects.Broken_terminal Sp.Defects.North;
      };
      { Sp.Defects.row = 1; col = 2; kind = Sp.Defects.Gate_leak Sp.Defects.West };
    ]
  in
  let check_circuit name nvars (build : (int -> Sp.Source.t) -> Sp.Lattice_circuit.t) =
    let base = build (dc_state ~vdd:1.2 0) in
    let base_text = deck_text base.Sp.Lattice_circuit.netlist in
    let states = 1 lsl nvars in
    let stimuli =
      List.init states (fun m -> (Printf.sprintf "state %d" m, dc_state ~vdd:1.2 m))
      @ [ ("pulses", Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:10e-9) ]
    in
    List.iter
      (fun (what, stimulus) ->
        let fresh = (build stimulus).Sp.Lattice_circuit.netlist in
        let rebound = (Sp.Lattice_circuit.rebind base ~stimulus).Sp.Lattice_circuit.netlist in
        let label field = Printf.sprintf "%s, %s: %s" name what field in
        Alcotest.(check string) (label "digest") (Sp.Netlist.structural_digest fresh)
          (Sp.Netlist.structural_digest rebound);
        Alcotest.(check string) (label "cache key") (Lattice_engine.Key.dc_op fresh)
          (Lattice_engine.Key.dc_op rebound);
        Alcotest.(check string) (label "deck text") (deck_text fresh) (deck_text rebound);
        (* the copy has its own node table *)
        ignore (Sp.Netlist.node rebound "probe_only");
        Alcotest.(check bool) (label "base node table untouched") true
          (Sp.Netlist.find_node base.Sp.Lattice_circuit.netlist "probe_only" = None))
      stimuli;
    Alcotest.(check string) (name ^ ": base unchanged") base_text
      (deck_text base.Sp.Lattice_circuit.netlist)
  in
  for nvars = 2 to 5 do
    let grid = random_grid st ~nvars in
    check_circuit (Printf.sprintf "%d vars" nvars) nvars (fun stimulus ->
        Sp.Lattice_circuit.build grid ~stimulus);
    check_circuit (Printf.sprintf "%d vars, broken terminals" nvars) nvars (fun stimulus ->
        Sp.Defects.build ~defects:(broken grid) grid ~stimulus)
  done;
  check_circuit "complementary xor3" 3 (fun stimulus ->
      Sp.Lattice_circuit.build_complementary ~pull_up:Lattice_synthesis.Library.xnor3_3x3
        ~pull_down:Lattice_synthesis.Library.xor3_3x3 ~stimulus ())

let () =
  Alcotest.run "spice"
    [
      ( "units",
        [
          Alcotest.test_case "parse_spice table" `Quick test_units_parse_spice;
          Alcotest.test_case "print_spice shortest exact" `Quick test_units_print_spice;
          QCheck_alcotest.to_alcotest prop_print_spice_matches_unpruned;
        ] );
      ( "source",
        [
          Alcotest.test_case "dc" `Quick test_source_dc;
          Alcotest.test_case "pulse" `Quick test_source_pulse;
          Alcotest.test_case "square wave phase" `Quick test_source_square_starts_low;
          Alcotest.test_case "bit clock counter" `Quick test_source_bit_clock_counter;
          Alcotest.test_case "pwl" `Quick test_source_pwl;
          Alcotest.test_case "complement driver" `Quick test_source_complement;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "node interning" `Quick test_netlist_nodes;
          Alcotest.test_case "counts" `Quick test_netlist_counts;
          Alcotest.test_case "value validation" `Quick test_netlist_rejects_bad_values;
          Alcotest.test_case "SPICE deck export" `Quick test_netlist_spice_export;
          Alcotest.test_case "lattice deck export" `Quick test_spice_export_of_lattice;
        ] );
      ( "dcop",
        [
          Alcotest.test_case "voltage divider" `Quick test_dcop_divider;
          Alcotest.test_case "branch current" `Quick test_dcop_branch_current;
          Alcotest.test_case "current source" `Quick test_dcop_isource;
          Alcotest.test_case "diode-connected FET" `Quick test_dcop_diode_connected_fet;
          Alcotest.test_case "inverter transfer" `Quick test_dcop_inverter_transfer;
          Alcotest.test_case "floating nodes via gmin" `Quick test_dcop_floating_through_fets;
        ] );
      ( "transient",
        [
          Alcotest.test_case "RC charge vs analytic" `Quick test_transient_rc_charge;
          Alcotest.test_case "trapezoidal beats backward Euler" `Quick test_transient_trap_beats_be;
          Alcotest.test_case "recording" `Quick test_transient_records_input;
          Alcotest.test_case "steady state stays put" `Quick test_transient_conserves_dc;
        ] );
      ( "measure",
        [
          Alcotest.test_case "rise/fall of trapezoid" `Quick test_measure_edges;
          Alcotest.test_case "steady levels" `Quick test_measure_levels;
          Alcotest.test_case "ascii plot" `Quick test_measure_plot;
          Alcotest.test_case "no crossing -> None" `Quick test_measure_no_crossing;
          Alcotest.test_case "boundary-sample crossings" `Quick test_measure_boundary_samples;
          Alcotest.test_case "clean edge on bouncy signal" `Quick test_measure_picks_clean_edge;
          Alcotest.test_case "degenerate span rejected" `Quick test_measure_rejects_bad_span;
          Alcotest.test_case "integral" `Quick test_measure_integral;
          Alcotest.test_case "supply energy" `Quick test_energy_from_supply;
        ] );
      ( "ac",
        [
          Alcotest.test_case "RC corner frequency" `Quick test_ac_rc_corner;
          Alcotest.test_case "single-pole rolloff" `Quick test_ac_rolloff;
          Alcotest.test_case "input validation" `Quick test_ac_errors;
          Alcotest.test_case "resistive circuits are flat" `Quick test_ac_divider_flat;
        ] );
      ( "fts",
        [
          Alcotest.test_case "switch on/off" `Quick test_fts_switching;
          Alcotest.test_case "element count" `Quick test_fts_element_count;
          Alcotest.test_case "cap suppression" `Quick test_fts_no_caps_option;
          Alcotest.test_case "terminal symmetry" `Quick test_fts_terminal_symmetry;
        ] );
      ( "lattice_circuit",
        [
          Alcotest.test_case "XOR3 DC truth table" `Quick test_lattice_circuit_xor3_dc;
          Alcotest.test_case "structure" `Quick test_lattice_circuit_structure;
          Alcotest.test_case "constant grids" `Quick test_lattice_circuit_const_grid;
          Alcotest.test_case "majority gate" `Quick test_lattice_circuit_maj3;
          Alcotest.test_case "complementary structure DC" `Quick
            test_lattice_circuit_complementary_dc;
          Alcotest.test_case "current recording" `Quick test_transient_current_recording;
          Alcotest.test_case "gate capacitance option" `Quick test_fts_gate_cap;
          Alcotest.test_case "functional with gate caps" `Slow test_gate_cap_slows_input_edge;
          Alcotest.test_case "level-3 switch models" `Quick test_lattice_circuit_level3_model;
          QCheck_alcotest.to_alcotest prop_circuit_matches_connectivity;
        ] );
      ( "sparse_engine",
        [
          Alcotest.test_case "random netlists: DC parity" `Quick test_sparse_dense_dcop_parity;
          Alcotest.test_case "random netlists: transient parity" `Quick
            test_sparse_dense_transient_parity;
          Alcotest.test_case "random netlists: failure residual parity" `Quick test_residual_parity;
          Alcotest.test_case "6x6 lattice transient parity" `Slow
            test_lattice_6x6_sparse_matches_dense;
          Alcotest.test_case "AC sweep parity" `Quick test_ac_sparse_matches_dense;
          Alcotest.test_case "warm Newton solve allocates nothing" `Quick
            test_newton_allocation_free;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "transient partial final step" `Quick
            test_transient_partial_final_step;
          Alcotest.test_case "solve_diag: plain wins" `Quick test_solve_diag_plain_wins;
          Alcotest.test_case "solve_diag: full ladder failure" `Quick
            test_solve_diag_failure_ladder;
          Alcotest.test_case "legacy solve raises with diagnostics" `Quick
            test_legacy_solve_raises_with_diagnostics;
          Alcotest.test_case "transient failure diagnostics" `Quick test_transient_diag_failure;
          Alcotest.test_case "transient step stats" `Quick test_transient_run_diag_stats;
        ] );
      ( "defects",
        [
          Alcotest.test_case "stuck-short conducts" `Quick test_defect_stuck_short_conducts;
          Alcotest.test_case "stuck-open blocks" `Quick test_defect_stuck_open_blocks;
          Alcotest.test_case "element counts per kind" `Quick test_defect_element_counts;
          Alcotest.test_case "single-defect universe size" `Quick test_defect_universe_size;
          Alcotest.test_case "near-singular sparse/dense parity" `Quick
            test_sparse_dense_defect_parity;
        ] );
      ( "rebind",
        [
          Alcotest.test_case "plan rebinds to the state it is given" `Quick test_plan_rebinds_state;
          Alcotest.test_case "plan rejects another structure" `Quick
            test_plan_rejects_other_structure;
          Alcotest.test_case "first factorization memo" `Quick test_plan_first_factorization_memo;
          Alcotest.test_case "plan over a state sequence = fresh solves" `Quick
            test_plan_state_sequence;
          Alcotest.test_case "rebound netlist = fresh build" `Quick test_rebind_matches_fresh_build;
        ] );
      ( "series_chain",
        [
          Alcotest.test_case "current decreases with N" `Quick test_series_monotone_decrease;
          Alcotest.test_case "voltage increases with N" `Quick test_series_voltage_monotone;
          Alcotest.test_case "build validation" `Quick test_series_build_validates;
        ] );
    ]
