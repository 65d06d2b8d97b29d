module Tt = Lattice_boolfn.Truthtable
module Grid = Lattice_core.Grid

type alphabet = Literals_only | Literals_and_constants

let entries_of_alphabet alphabet nvars =
  let lits =
    List.concat_map (fun v -> [ Grid.Lit (v, true); Grid.Lit (v, false) ]) (List.init nvars Fun.id)
  in
  match alphabet with
  | Literals_only -> Array.of_list lits
  | Literals_and_constants -> Array.of_list (lits @ [ Grid.Const false; Grid.Const true ])

(* value mask of an entry: bit [a] set when the entry evaluates to 1 under
   assignment [a] *)
let value_mask nvars entry =
  let limit = 1 lsl nvars in
  let acc = ref 0 in
  for a = 0 to limit - 1 do
    let v =
      match entry with
      | Grid.Const b -> b
      | Grid.Lit (var, polarity) -> Bool.equal (a land (1 lsl var) <> 0) polarity
    in
    if v then acc := !acc lor (1 lsl a)
  done;
  !acc

(* Shared search skeleton over per-site candidate entries; [on_hit] receives
   the per-site candidate table and the choice indices, and returns [true]
   to stop the search. *)
let search ~rows ~cols ~alphabet ~pins target on_hit =
  let nvars = Tt.nvars target in
  if nvars > 6 then invalid_arg "Exhaustive: too many variables (max 6)";
  let nsites = rows * cols in
  if nsites > 20 then invalid_arg "Exhaustive: lattice too large (max 20 sites)";
  let alpha = entries_of_alphabet alphabet nvars in
  (* per-site candidate entries: pinned sites get exactly their entry *)
  let site_entries =
    Array.init nsites (fun site ->
        match List.assoc_opt site pins with
        | Some entry -> [| entry |]
        | None -> alpha)
  in
  List.iter
    (fun (site, _) ->
      if site < 0 || site >= nsites then invalid_arg "Exhaustive: pin out of range")
    pins;
  let site_masks = Array.map (Array.map (value_mask nvars)) site_entries in
  let table = Lattice_core.Connectivity.table_of_patterns ~rows ~cols in
  let nassign = 1 lsl nvars in
  let target_bits = Array.init nassign (Tt.eval target) in
  let patt = Array.make nassign 0 in
  let digits = Array.make nsites 0 in
  let exception Stop in
  let rec go site =
    if site = nsites then begin
      let ok = ref true in
      let a = ref 0 in
      while !ok && !a < nassign do
        if Bool.equal (Bytes.get table patt.(!a) <> '\000') target_bits.(!a) then incr a
        else ok := false
      done;
      if !ok && on_hit site_entries digits then raise Stop
    end
    else begin
      let bit = 1 lsl site in
      let masks = site_masks.(site) in
      for d = 0 to Array.length masks - 1 do
        digits.(site) <- d;
        let m = masks.(d) in
        for a = 0 to nassign - 1 do
          if m land (1 lsl a) <> 0 then patt.(a) <- patt.(a) lor bit
        done;
        go (site + 1);
        for a = 0 to nassign - 1 do
          patt.(a) <- patt.(a) land lnot bit
        done
      done
    end
  in
  Lattice_obs.Trace.with_span ~cat:"synthesis" "exhaustive-search" (fun () ->
      try go 0 with Stop -> ());
  site_entries

let grid_of_digits ~rows ~cols site_entries digits =
  Grid.create rows cols (Array.mapi (fun site d -> site_entries.(site).(d)) digits)

let find_with_pins ~rows ~cols ?(alphabet = Literals_only) ~pins target =
  let result = ref None in
  let (_ : Grid.entry array array) =
    search ~rows ~cols ~alphabet ~pins target (fun site_entries digits ->
        result := Some (grid_of_digits ~rows ~cols site_entries digits);
        true)
  in
  !result

let find ~rows ~cols ?alphabet target = find_with_pins ~rows ~cols ?alphabet ~pins:[] target

let count_solutions ~rows ~cols ?(alphabet = Literals_only) ?limit target =
  let count = ref 0 in
  let (_ : Grid.entry array array) =
    search ~rows ~cols ~alphabet ~pins:[] target (fun _ _ ->
        incr count;
        match limit with Some l -> !count >= l | None -> false)
  in
  !count

let minimal ?(alphabet = Literals_only) ?(max_area = 9) target =
  let candidates =
    List.concat_map
      (fun rows -> List.map (fun cols -> (rows, cols)) (List.init max_area (fun i -> i + 1)))
      (List.init max_area (fun i -> i + 1))
    |> List.filter (fun (r, c) -> r * c <= max_area)
    |> List.sort (fun (r1, c1) (r2, c2) ->
           match Int.compare (r1 * c1) (r2 * c2) with 0 -> Int.compare r1 r2 | d -> d)
  in
  let rec try_dims = function
    | [] -> None
    | (rows, cols) :: rest -> (
      match find ~rows ~cols ~alphabet target with
      | Some grid -> Some (grid, rows, cols)
      | None -> try_dims rest)
  in
  try_dims candidates

module Sp = Lattice_spice
module Engine = Lattice_engine.Engine

let validate_circuit ?engine ?(config = Sp.Lattice_circuit.default_config)
    ?(dc = Sp.Dcop.default_options) grid ~target =
  let nvars = Tt.nvars target in
  if nvars > 5 then invalid_arg "Exhaustive.validate_circuit: too many inputs";
  let engine = Engine.or_fresh engine in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let states = 1 lsl nvars in
  let state_ok m =
    let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then vdd else 0.0) in
    let lc = Sp.Lattice_circuit.build ~config grid ~stimulus in
    match Engine.dc_op engine ~options:dc lc.Sp.Lattice_circuit.netlist with
    | Error _ -> false
    | Ok (x, _) ->
      let v =
        Sp.Mna.voltage x
          (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist lc.Sp.Lattice_circuit.output_node)
      in
      (* pull-down lattice: the circuit output is the complement of the
         lattice function *)
      Bool.equal (v > vdd /. 2.0) (not (Tt.eval target m))
  in
  Array.for_all Fun.id (Engine.map engine ~phase:"circuit-validate" ~n:states state_ok)

let find_circuit_verified ~rows ~cols ?(alphabet = Literals_only) ?engine ?config ?dc
    ?(pins = []) target =
  let engine = Engine.or_fresh engine in
  let result = ref None in
  let (_ : Grid.entry array array) =
    search ~rows ~cols ~alphabet ~pins target (fun site_entries digits ->
        let grid = grid_of_digits ~rows ~cols site_entries digits in
        if validate_circuit ~engine ?config ?dc grid ~target then begin
          result := Some grid;
          true
        end
        else false)
  in
  !result
