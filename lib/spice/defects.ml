type terminal = North | East | South | West

let terminal_name = function North -> "N" | East -> "E" | South -> "S" | West -> "W"

let as_poly = function
  | North -> `North
  | East -> `East
  | South -> `South
  | West -> `West

type kind =
  | Stuck_open
  | Stuck_short
  | Bridge of terminal * terminal
  | Broken_terminal of terminal
  | Gate_leak of terminal

type t = { row : int; col : int; kind : kind }

let kind_name = function
  | Stuck_open -> "stuck-open"
  | Stuck_short -> "stuck-short"
  | Bridge (a, b) -> Printf.sprintf "bridge-%s%s" (terminal_name a) (terminal_name b)
  | Broken_terminal t -> Printf.sprintf "broken-%s" (terminal_name t)
  | Gate_leak t -> Printf.sprintf "gate-leak-%s" (terminal_name t)

let name d = Printf.sprintf "(%d,%d) %s" d.row d.col (kind_name d.kind)

type params = {
  r_open : float;
  r_short : float;
  r_bridge : float;
  r_broken : float;
  r_leak : float;
}

let default_params =
  { r_open = 1e10; r_short = 50.0; r_bridge = 1e3; r_broken = 1e8; r_leak = 1e6 }

(* replicate the default switch's grounded terminal capacitors when a
   structural defect replaces the six-FET switch *)
let terminal_caps ckt (site : Lattice_circuit.site) =
  if site.Lattice_circuit.terminal_cap > 0.0 then
    List.iter
      (fun (suffix, n) ->
        Netlist.capacitor ckt
          (Printf.sprintf "%s.C%s" site.Lattice_circuit.name suffix)
          n Netlist.ground site.Lattice_circuit.terminal_cap)
      [
        ("n", site.Lattice_circuit.north);
        ("e", site.Lattice_circuit.east);
        ("s", site.Lattice_circuit.south);
        ("w", site.Lattice_circuit.west);
      ]

let is_structural = function
  | Stuck_open | Stuck_short | Broken_terminal _ -> true
  | Bridge _ | Gate_leak _ -> false

let inject_structural ?(params = default_params) ckt (site : Lattice_circuit.site) kind =
  let term t = Lattice_circuit.site_terminal site (as_poly t) in
  let res suffix n1 n2 ohms =
    Netlist.resistor ckt (Printf.sprintf "%s.D%s" site.Lattice_circuit.name suffix) n1 n2 ohms
  in
  match kind with
  | Stuck_open ->
    (* the switch never conducts: the six FETs are gone; only a weak
       sub-threshold leakage couples opposite terminals *)
    terminal_caps ckt site;
    res "open_ns" (term North) (term South) params.r_open;
    res "open_ew" (term East) (term West) params.r_open
  | Stuck_short ->
    (* the switch always conducts: hard resistive shorts across every
       adjacent terminal pair, gate ignored *)
    terminal_caps ckt site;
    res "short_ne" (term North) (term East) params.r_short;
    res "short_es" (term East) (term South) params.r_short;
    res "short_sw" (term South) (term West) params.r_short;
    res "short_wn" (term West) (term North) params.r_short
  | Broken_terminal t ->
    (* the switch is intact but one terminal reaches the lattice only
       through a high-resistance crack: reroute that terminal to a fresh
       internal node and bridge it to the real node with r_broken *)
    let broken =
      Netlist.fresh_node ckt
        (Printf.sprintf "%s.broken_%s" site.Lattice_circuit.name (terminal_name t))
    in
    let pick want real = if t = want then broken else real in
    Fts.instantiate ckt ~name:site.Lattice_circuit.name
      ~north:(pick North site.Lattice_circuit.north)
      ~east:(pick East site.Lattice_circuit.east)
      ~south:(pick South site.Lattice_circuit.south)
      ~west:(pick West site.Lattice_circuit.west)
      ~gate:site.Lattice_circuit.gate ~terminal_cap:site.Lattice_circuit.terminal_cap
      site.Lattice_circuit.types;
    res (Printf.sprintf "broken_%s" (terminal_name t)) broken (term t) params.r_broken
  | Bridge _ | Gate_leak _ -> invalid_arg "Defects.inject_structural: not a structural kind"

let hook ?(params = default_params) defects : Lattice_circuit.site_hook =
 fun ckt site ->
  let here =
    List.filter
      (fun d -> d.row = site.Lattice_circuit.row && d.col = site.Lattice_circuit.col)
      defects
  in
  if here = [] then false
  else begin
    let term t = Lattice_circuit.site_terminal site (as_poly t) in
    (* additive defects keep the switch and just add parasitics *)
    List.iteri
      (fun i d ->
        match d.kind with
        | Bridge (a, b) ->
          Netlist.resistor ckt
            (Printf.sprintf "%s.Dbridge%d" site.Lattice_circuit.name i)
            (term a) (term b) params.r_bridge
        | Gate_leak t ->
          Netlist.resistor ckt
            (Printf.sprintf "%s.Dleak%d" site.Lattice_circuit.name i)
            site.Lattice_circuit.gate (term t) params.r_leak
        | Stuck_open | Stuck_short | Broken_terminal _ -> ())
      here;
    (* at most one structural defect replaces the switch; the first wins *)
    match List.find_opt (fun d -> is_structural d.kind) here with
    | None -> false
    | Some d ->
      inject_structural ~params ckt site d.kind;
      true
  end

let build ?params ?types_of_site ~defects grid ~stimulus =
  Lattice_circuit.build ?types_of_site ~site_hook:(hook ?params defects) grid ~stimulus

type kind_class = Opens | Shorts | Bridges | Broken_terminals | Gate_leaks

let all_classes = [ Opens; Shorts; Bridges; Broken_terminals; Gate_leaks ]

let kinds_of_class = function
  | Opens -> [ Stuck_open ]
  | Shorts -> [ Stuck_short ]
  | Bridges -> [ Bridge (North, East); Bridge (East, South); Bridge (South, West); Bridge (West, North) ]
  | Broken_terminals -> [ Broken_terminal North; Broken_terminal East; Broken_terminal South; Broken_terminal West ]
  | Gate_leaks -> [ Gate_leak North; Gate_leak East; Gate_leak South; Gate_leak West ]

let single_defects ?(classes = all_classes) grid =
  let kinds = List.concat_map kinds_of_class classes in
  List.concat_map
    (fun row ->
      List.concat_map
        (fun col -> List.map (fun kind -> { row; col; kind }) kinds)
        (List.init grid.Lattice_core.Grid.cols Fun.id))
    (List.init grid.Lattice_core.Grid.rows Fun.id)
