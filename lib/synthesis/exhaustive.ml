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

(* value row of an entry: [row.(a)] is the entry's value under assignment
   [a]; one bool per assignment, so all 64 assignments of 6 variables fit *)
let value_row nvars entry =
  Array.init (1 lsl nvars) (fun a ->
      match entry with
      | Grid.Const b -> b
      | Grid.Lit (var, polarity) -> Bool.equal (a land (1 lsl var) <> 0) polarity)

let nodes_counter = Lattice_obs.Metrics.counter "synthesis.search_nodes"

(* Shared search skeleton over per-site candidate entries; [on_hit] receives
   the per-site candidate table and the choice indices, and returns [true]
   to stop the search. *)
let search ~rows ~cols ~alphabet ~pins target on_hit =
  let nvars = Tt.nvars target in
  if nvars > 6 then invalid_arg "Exhaustive: too many variables (max 6)";
  let nsites = rows * cols in
  if nsites > 20 then invalid_arg "Exhaustive: lattice too large (max 20 sites)";
  (* per-site candidate entries: pinned sites get exactly their entry *)
  let site_entries = Array.make nsites (entries_of_alphabet alphabet nvars) in
  let pinned = Array.make nsites false in
  List.iter
    (fun (site, entry) ->
      if site < 0 || site >= nsites then invalid_arg "Exhaustive: pin out of range";
      if pinned.(site) then invalid_arg "Exhaustive: two pins on one site";
      (match entry with
      | Grid.Lit (v, _) when v < 0 || v >= nvars ->
        invalid_arg "Exhaustive: pinned literal names no variable of the target"
      | Grid.Lit _ | Grid.Const _ -> ());
      pinned.(site) <- true;
      site_entries.(site) <- [| entry |])
    pins;
  let site_rows = Array.map (Array.map (value_row nvars)) site_entries in
  let table = Lattice_core.Connectivity.table_of_patterns ~rows ~cols in
  let conducts pattern = Bytes.get table pattern <> '\000' in
  let nassign = 1 lsl nvars in
  let target_bits = Array.init nassign (Tt.eval target) in
  let patt = Array.make nassign 0 in
  let digits = Array.make nsites 0 in
  (* Connectivity is monotone in the set of ON sites. With sites
     [site..nsites-1] still free, no completion realizes the target if an
     input that needs conduction is blocked even with every free site ON,
     or an input that needs blocking conducts even with every free site
     OFF. At [site = nsites] nothing is free and the test is the exact
     match, so pruning skips only subtrees without a hit. *)
  let feasible site =
    let free = ((1 lsl nsites) - 1) land lnot ((1 lsl site) - 1) in
    let ok = ref true in
    let a = ref 0 in
    while !ok && !a < nassign do
      let p = patt.(!a) in
      ok := if target_bits.(!a) then conducts (p lor free) else not (conducts p);
      incr a
    done;
    !ok
  in
  let nodes = ref 0 in
  let exception Stop in
  let rec go site =
    incr nodes;
    if feasible site then
      if site = nsites then (if on_hit site_entries digits then raise Stop)
      else begin
        let bit = 1 lsl site in
        let rows_of_site = site_rows.(site) in
        for d = 0 to Array.length rows_of_site - 1 do
          digits.(site) <- d;
          let row = rows_of_site.(d) in
          for a = 0 to nassign - 1 do
            if row.(a) then patt.(a) <- patt.(a) lor bit
          done;
          go (site + 1);
          for a = 0 to nassign - 1 do
            patt.(a) <- patt.(a) land lnot bit
          done
        done
      end
  in
  Lattice_obs.Trace.with_span ~cat:"synthesis" "exhaustive-search" (fun () ->
      Fun.protect
        ~finally:(fun () -> Lattice_obs.Metrics.Counter.add nodes_counter !nodes)
        (fun () -> try go 0 with Stop -> ()))

let grid_of_digits ~rows ~cols site_entries digits =
  Grid.create rows cols (Array.mapi (fun site d -> site_entries.(site).(d)) digits)

let find_with_pins ~rows ~cols ?(alphabet = Literals_only) ~pins target =
  let result = ref None in
  search ~rows ~cols ~alphabet ~pins target (fun site_entries digits ->
      result := Some (grid_of_digits ~rows ~cols site_entries digits);
      true);
  !result

let find ~rows ~cols ?alphabet target = find_with_pins ~rows ~cols ?alphabet ~pins:[] target

let count_solutions ~rows ~cols ?(alphabet = Literals_only) ?limit target =
  let count = ref 0 in
  search ~rows ~cols ~alphabet ~pins:[] target (fun _ _ ->
      incr count;
      match limit with Some l -> !count >= l | None -> false);
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
  (* one job, not one per state: the states share the circuit's solve
     workspace, which must stay on one domain *)
  let validate _ =
    let output_at =
      Engine.lattice_output engine ~options:dc
        (Sp.Lattice_circuit.build ~config grid ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd 0))
    in
    List.for_all
      (fun m ->
        match output_at ~cancel:Lattice_engine.Cancel.none m with
        | Error _ -> false
        | Ok (v, _) ->
          (* pull-down lattice: the circuit output is the complement of
             the lattice function *)
          Bool.equal (v > vdd /. 2.0) (not (Tt.eval target m)))
      (List.init (1 lsl nvars) Fun.id)
  in
  (Engine.map engine ~phase:"circuit-validate" ~n:1 validate).(0)
