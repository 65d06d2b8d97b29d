module Tt = Lattice_boolfn.Truthtable
module Grid = Lattice_core.Grid
module S = Lattice_synthesis
module Sp = Lattice_spice
module L1 = Lattice_mosfet.Level1

type implementation = { grid : Grid.t; inverted : bool; method_name : string }

type metrics = {
  area : int;
  delay : float;
  rise : float;
  fall : float;
  static_power : float;
  from_spice : bool;
}

type evaluated = {
  implementation : implementation;
  metrics : metrics;
  feasible : bool;
  score : float;
}

type spec = { max_area : int option; weight_power : float }

let default_spec = { max_area = None; weight_power = 1.0 }
let config = Sp.Lattice_circuit.default_config

let candidates ?expr target =
  let direct = { grid = (S.Altun_riedel.synthesize target).S.Altun_riedel.grid;
                 inverted = false; method_name = "dual-based" } in
  let complement =
    {
      grid = (S.Altun_riedel.synthesize (Tt.complement target)).S.Altun_riedel.grid;
      inverted = true;
      method_name = "dual-based (complement, inverted out)";
    }
  in
  let composed =
    match expr with
    | None -> []
    | Some e ->
      [ { grid = Lattice_core.Compose.of_expr e; inverted = false; method_name = "composition" } ]
  in
  let exhaustive =
    if Tt.nvars target <= 4 then
      match
        S.Exhaustive.minimal ~alphabet:S.Exhaustive.Literals_and_constants ~max_area:6 target
      with
      | Some (grid, _, _) -> [ { grid; inverted = false; method_name = "exhaustive" } ]
      | None -> []
    else []
  in
  (* drop duplicates by dimensions + method redundancy: keep everything;
     dedup by grid content *)
  let key impl = (impl.grid.Grid.rows, impl.grid.Grid.cols, impl.grid.Grid.entries, impl.inverted) in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun impl ->
      let k = key impl in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    ([ direct; complement ] @ composed @ exhaustive)

(* N-S on-conductance of one switch at vgs = vdd: the type-B diagonal in
   parallel with the two-step type-A edge path *)
let switch_on_conductance =
  let vdd = config.Sp.Lattice_circuit.vdd in
  let g_of m = Lattice_mosfet.Model.on_conductance m ~vdd in
  let ga = g_of config.Sp.Lattice_circuit.types.Sp.Fts.type_a in
  let gb = g_of config.Sp.Lattice_circuit.types.Sp.Fts.type_b in
  gb +. (ga /. 2.0)

(* fraction of input states in which the pull-down conducts *)
let duty grid =
  let nvars = Int.max 1 (Grid.nvars grid) in
  let states = 1 lsl nvars in
  let on = ref 0 in
  for m = 0 to states - 1 do
    if Lattice_core.Connectivity.eval grid m then incr on
  done;
  float_of_int !on /. float_of_int states

let estimate impl =
  let grid = impl.grid in
  let rows = grid.Grid.rows and cols = grid.Grid.cols in
  let r_on_chain = float_of_int rows /. switch_on_conductance in
  let c_out =
    Sp.Lattice_circuit.output_cap +. (float_of_int cols *. Sp.Fts.default_terminal_cap)
  in
  (* 10-90% edges of first-order RC responses *)
  let rise = 2.2 *. config.Sp.Lattice_circuit.pullup_ohms *. c_out in
  let fall = 2.2 *. r_on_chain *. c_out in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let static_power =
    duty grid *. vdd *. vdd /. (config.Sp.Lattice_circuit.pullup_ohms +. r_on_chain)
  in
  {
    area = Grid.size grid;
    delay = Float.max rise fall;
    rise;
    fall;
    static_power;
    from_spice = false;
  }

(* measured metrics: DC supply power per input state and a full
   all-combinations transient for the edges *)
let evaluate_spice target impl =
  let nvars = Tt.nvars target in
  if nvars > 5 then invalid_arg "Optimizer.evaluate_spice: too many inputs";
  let vdd = config.Sp.Lattice_circuit.vdd in
  (* static power per input state at DC *)
  let states = 1 lsl nvars in
  let powers =
    Array.init states (fun m ->
        let lc =
          Sp.Lattice_circuit.build impl.grid
            ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m)
        in
        let x = Sp.Dcop.solve lc.Sp.Lattice_circuit.netlist in
        match Sp.Netlist.vsource_index lc.Sp.Lattice_circuit.netlist "VDD" with
        | Some idx -> -.x.(Sp.Netlist.vsource_row lc.Sp.Lattice_circuit.netlist idx) *. vdd
        | None -> assert false)
  in
  (* transient over every combination for the edges *)
  let bit_time = 80e-9 in
  let lc =
    Sp.Lattice_circuit.build impl.grid
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time)
  in
  let r =
    Sp.Transient.run lc.Sp.Lattice_circuit.netlist ~h:0.5e-9
      ~t_stop:(float_of_int states *. bit_time)
      ~record:[ lc.Sp.Lattice_circuit.output_node ] ()
  in
  let out = Sp.Transient.signal r lc.Sp.Lattice_circuit.output_node in
  let v_low, v_high = Sp.Measure.steady_levels r.Sp.Transient.times out ~settle:(bit_time /. 4.0) in
  let with_default d = function Some x -> x | None -> d in
  let est = estimate impl in
  let rise = with_default est.rise (Sp.Measure.rise_time r.Sp.Transient.times out ~low:v_low ~high:v_high) in
  let fall = with_default est.fall (Sp.Measure.fall_time r.Sp.Transient.times out ~low:v_low ~high:v_high) in
  {
    area = Grid.size impl.grid;
    delay = Float.max rise fall;
    rise;
    fall;
    static_power = Lattice_numerics.Stats.mean powers;
    from_spice = true;
  }

let meets_bound bound value = match bound with None -> true | Some b -> value <= b

let optimize ?(spec = default_spec) ?(use_spice = false) ?expr target =
  let impls = candidates ?expr target in
  (* validate every candidate before evaluating it *)
  List.iter
    (fun impl ->
      let effective = if impl.inverted then Tt.complement target else target in
      if not (S.Validate.realizes impl.grid effective) then
        failwith ("Optimizer: candidate does not realize the target: " ^ impl.method_name))
    impls;
  let evaluated =
    List.map
      (fun impl ->
        let metrics =
          if use_spice then evaluate_spice target impl else estimate impl
        in
        let feasible = meets_bound spec.max_area metrics.area in
        (impl, metrics, feasible))
      impls
  in
  (* normalize each axis by the best candidate so weights are comparable *)
  let min_over f =
    List.fold_left (fun acc (_, m, _) -> Float.min acc (f m)) infinity evaluated
  in
  let a0 = min_over (fun m -> float_of_int m.area) in
  let d0 = min_over (fun m -> m.delay) in
  let p0 = min_over (fun m -> m.static_power) in
  let norm base v = if base <= 0.0 then 1.0 else v /. base in
  let scored =
    List.map
      (fun (impl, m, feasible) ->
        let score =
          norm a0 (float_of_int m.area) +. norm d0 m.delay
          +. (spec.weight_power *. norm p0 m.static_power)
        in
        { implementation = impl; metrics = m; feasible; score })
      evaluated
  in
  List.sort
    (fun a b ->
      match (a.feasible, b.feasible) with
      | true, false -> -1
      | false, true -> 1
      | true, true | false, false -> Float.compare a.score b.score)
    scored

let describe e ~names =
  let m = e.metrics in
  let impl = e.implementation in
  Printf.sprintf
    "%-36s %dx%d area=%d%s  delay=%.3gns (r %.3g / f %.3g)  P_static=%.3guW  %s score=%.3f\n%s"
    impl.method_name impl.grid.Grid.rows impl.grid.Grid.cols m.area
    (if impl.inverted then " (inverted out)" else "")
    (m.delay *. 1e9) (m.rise *. 1e9) (m.fall *. 1e9) (m.static_power *. 1e6)
    (if e.feasible then "feasible" else "INFEASIBLE")
    e.score
    (Grid.to_string ~names impl.grid)
