type t = { netlist : Netlist.t; supply_index : int }

let build ~n ~gate_v ~v_top =
  if n < 1 then invalid_arg "Series_chain.build: need at least one switch";
  let ckt = Netlist.create () in
  let gate = Netlist.node ckt "gate" in
  Netlist.vsource ckt "VG" gate Netlist.ground (Source.Dc gate_v);
  let top = Netlist.node ckt "top" in
  (* the top driver is the first voltage source after VG: index 1 *)
  Netlist.vsource ckt "VTOP" top Netlist.ground (Source.Dc v_top);
  let chain_node k =
    if k = 0 then top else if k = n then Netlist.ground
    else Netlist.node ckt (Printf.sprintf "chain_%d" k)
  in
  for k = 0 to n - 1 do
    Fts.instantiate ckt
      ~name:(Printf.sprintf "X%d" k)
      ~north:(chain_node k)
      ~east:(Netlist.node ckt (Printf.sprintf "e_%d" k))
      ~south:(chain_node (k + 1))
      ~west:(Netlist.node ckt (Printf.sprintf "w_%d" k))
      ~gate ~terminal_cap:Fts.default_terminal_cap Fts.default_types
  done;
  { netlist = ckt; supply_index = 1 }

let chain_current ~n ~gate_v ~v_top =
  let chain = build ~n ~gate_v ~v_top in
  let x = Dcop.solve chain.netlist in
  (* branch current positive into the source's + terminal; conduction pulls
     current out of the top node, so negate *)
  -.x.(Netlist.vsource_row chain.netlist chain.supply_index)

let current ~n ~v_top () = chain_current ~n ~gate_v:1.2 ~v_top

(* Fig 12b sweeps the supply, which drives the gates too (the chain would
   otherwise saturate once internal nodes rise above VG - Vth); the gate is
   therefore tied to the swept voltage. *)
let voltage_for_current ~n ~i_target () =
  if i_target <= 0.0 then invalid_arg "Series_chain.voltage_for_current: target must be positive";
  let f v = chain_current ~n ~gate_v:v ~v_top:v -. i_target in
  Lattice_numerics.Interp.bisect f 0.0 20.0 ~tol:1e-4
