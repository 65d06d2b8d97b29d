module Grid = Lattice_core.Grid

type config = {
  vdd : float;
  pullup_ohms : float;
  types : Fts.mosfet_types;
}

let default_config =
  {
    vdd = 1.2;
    pullup_ohms = 500e3;
    types = Fts.default_types;
  }

let output_cap = 10e-15

(* What [rebind] and [with_types] reuse of a built circuit. *)
type layout = {
  drivers : (string * string) array;  (* per variable: its driver's and complement driver's names *)
  switches : (int * int) array option;
      (* row and column of each switch in the order [build] added them,
         the MOSFETs of [Fts.models] each, and no other MOSFET; None when
         a site hook or a second lattice may have added others *)
}

type t = {
  netlist : Netlist.t;
  output_node : string;
  input_nodes : string array;
  config : config;
  layout : layout;
}

type site = {
  row : int;
  col : int;
  name : string;
  north : Netlist.node;
  east : Netlist.node;
  south : Netlist.node;
  west : Netlist.node;
  gate : Netlist.node;
  types : Fts.mosfet_types;
  terminal_cap : float;
}

type site_hook = Netlist.t -> site -> bool

let site_terminal site = function
  | `North -> site.north
  | `East -> site.east
  | `South -> site.south
  | `West -> site.west

let input_node_name v = Printf.sprintf "in_%d" v
let input_bar_node_name v = Printf.sprintf "in_%d_bar" v
let driver_name v = Printf.sprintf "Vin%d" v
let driver_bar_name v = Printf.sprintf "Vin%d_bar" v
let drivers nvars = Array.init nvars (fun v -> (driver_name v, driver_bar_name v))

let complement ~vdd wave =
  match wave with
  | Source.Dc v -> Source.Dc (vdd -. v)
  | Source.Pulse ({ v1; v2; _ } as p) -> Source.Pulse { p with v1 = vdd -. v1; v2 = vdd -. v2 }
  | Source.Pwl points -> Source.Pwl (List.map (fun (t, v) -> (t, vdd -. v)) points)
  | Source.Sin ({ offset; amplitude; _ } as s) ->
    Source.Sin { s with offset = vdd -. offset; amplitude = -.amplitude }

let state_stimulus ~vdd m v = Source.Dc (if (m lsr v) land 1 = 1 then vdd else 0.0)
let exhaustive_stimulus ~vdd ~bit_time v = Source.bit_clock ~vdd ~bit_time ~bit_index:v ()

(* add the input drivers a set of grids needs (positive and complemented
   phases created on demand) *)
let add_input_drivers ckt config grids ~stimulus =
  let nvars = List.fold_left (fun acc g -> Int.max acc (Grid.nvars g)) 0 grids in
  let uses_pos = Array.make (Int.max 1 nvars) false in
  let uses_neg = Array.make (Int.max 1 nvars) false in
  List.iter
    (fun grid ->
      Array.iter
        (function
          | Grid.Lit (v, true) -> uses_pos.(v) <- true
          | Grid.Lit (v, false) -> uses_neg.(v) <- true
          | Grid.Const _ -> ())
        grid.Grid.entries)
    grids;
  for v = 0 to nvars - 1 do
    if uses_pos.(v) then begin
      let n = Netlist.node ckt (input_node_name v) in
      Netlist.vsource ckt (driver_name v) n Netlist.ground (stimulus v)
    end;
    if uses_neg.(v) then begin
      let n = Netlist.node ckt (input_bar_node_name v) in
      Netlist.vsource ckt (driver_bar_name v) n Netlist.ground
        (complement ~vdd:config.vdd (stimulus v))
    end
  done;
  nvars

(* plate and inter-switch wiring of one lattice between [top] and [bottom]:
   horizontal boundary h(r, c) sits between row r-1 and row r at column c,
   with h(0, c) the top plate and h(rows, c) the bottom plate; vertical
   boundary v(r, c) between columns c-1 and c at row r; v(r, 0) and
   v(r, cols) dangle. *)
let instantiate_lattice ?types_of_site ?site_hook ckt (config : config) grid ~prefix ~top
    ~bottom ~vdd_node =
  let rows = grid.Grid.rows and cols = grid.Grid.cols in
  let types_at r c =
    match types_of_site with None -> config.types | Some f -> f r c
  in
  let hnode r c =
    if r = 0 then top
    else if r = rows then bottom
    else Netlist.node ckt (Printf.sprintf "%s.h_%d_%d" prefix r c)
  in
  let vnode r c = Netlist.node ckt (Printf.sprintf "%s.v_%d_%d" prefix r c) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let gate =
        match Grid.entry grid r c with
        | Grid.Const true -> vdd_node
        | Grid.Const false -> Netlist.ground
        | Grid.Lit (v, true) -> Netlist.node ckt (input_node_name v)
        | Grid.Lit (v, false) -> Netlist.node ckt (input_bar_node_name v)
      in
      let site =
        {
          row = r;
          col = c;
          name = Printf.sprintf "%s.X_%d_%d" prefix r c;
          north = hnode r c;
          east = vnode r (c + 1);
          south = hnode (r + 1) c;
          west = vnode r c;
          gate;
          types = types_at r c;
          terminal_cap = Fts.default_terminal_cap;
        }
      in
      let handled = match site_hook with None -> false | Some hook -> hook ckt site in
      if not handled then
        Fts.instantiate ckt ~name:site.name ~north:site.north ~east:site.east ~south:site.south
          ~west:site.west ~gate:site.gate ~terminal_cap:site.terminal_cap site.types
    done
  done

let build ?(config = default_config) ?types_of_site ?site_hook grid ~stimulus =
  let ckt = Netlist.create () in
  let vdd_node = Netlist.node ckt "vdd" in
  Netlist.vsource ckt "VDD" vdd_node Netlist.ground (Source.Dc config.vdd);
  let out = Netlist.node ckt "out" in
  Netlist.resistor ckt "Rpull" vdd_node out config.pullup_ohms;
  Netlist.capacitor ckt "Cout" out Netlist.ground output_cap;
  let nvars = add_input_drivers ckt config [ grid ] ~stimulus in
  instantiate_lattice ?types_of_site ?site_hook ckt config grid ~prefix:"pd" ~top:out
    ~bottom:Netlist.ground ~vdd_node;
  let switches =
    (* [instantiate_lattice] walks the sites row by row *)
    match site_hook with
    | None -> Some (Array.init (Grid.size grid) (fun i -> (i / grid.Grid.cols, i mod grid.Grid.cols)))
    | Some _ -> None
  in
  {
    netlist = ckt;
    output_node = "out";
    input_nodes = Array.init nvars input_node_name;
    config;
    layout = { drivers = drivers nvars; switches };
  }

let rebind lc ~stimulus =
  let vdd = lc.config.vdd and drivers = lc.layout.drivers in
  let waves = Array.init (Array.length drivers) stimulus in
  let rec wave_of name v =
    if v = Array.length drivers then None
    else
      let pos, neg = drivers.(v) in
      if String.equal name pos then Some waves.(v)
      else if String.equal name neg then Some (complement ~vdd waves.(v))
      else wave_of name (v + 1)
  in
  { lc with netlist = Netlist.rebind_vsources lc.netlist (fun name -> wave_of name 0) }

let with_types lc ~types_of_site =
  match lc.layout.switches with
  | None -> invalid_arg "Lattice_circuit.with_types: not a circuit of [build] without a site hook"
  | Some switches ->
    let models = Array.map (fun (r, c) -> Fts.models (types_of_site r c)) switches in
    let per_switch = Array.length (Fts.models lc.config.types) in
    {
      lc with
      netlist =
        Netlist.rebind_models lc.netlist (fun k -> models.(k / per_switch).(k mod per_switch));
    }

let build_complementary ~pull_up ~pull_down ~stimulus () =
  let config = default_config in
  let ckt = Netlist.create () in
  let vdd_node = Netlist.node ckt "vdd" in
  Netlist.vsource ckt "VDD" vdd_node Netlist.ground (Source.Dc config.vdd);
  let out = Netlist.node ckt "out" in
  Netlist.capacitor ckt "Cout" out Netlist.ground output_cap;
  let nvars = add_input_drivers ckt config [ pull_up; pull_down ] ~stimulus in
  (* pull-up lattice between VDD and the output, pull-down between the
     output and ground *)
  instantiate_lattice ckt config pull_up ~prefix:"pu" ~top:vdd_node ~bottom:out ~vdd_node;
  instantiate_lattice ckt config pull_down ~prefix:"pd" ~top:out
    ~bottom:Netlist.ground ~vdd_node;
  {
    netlist = ckt;
    output_node = "out";
    input_nodes = Array.init nvars input_node_name;
    config;
    layout = { drivers = drivers nvars; switches = None };
  }
