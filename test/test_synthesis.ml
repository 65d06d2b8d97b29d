(* Tests for lattice synthesis: validation, the dual-based construction,
   exhaustive search and the library lattices. *)

module S = Lattice_synthesis
module Tt = Lattice_boolfn.Truthtable
module Grid = Lattice_core.Grid

(* --- Validate ------------------------------------------------------------ *)

let test_validate_positive () =
  Alcotest.(check bool) "xor3 3x3" true (S.Validate.realizes S.Library.xor3_3x3 S.Library.xor3)

let test_validate_negative () =
  let not_xor, _ = Grid.of_strings [ [ "a" ]; [ "b" ]; [ "c" ] ] in
  Alcotest.(check bool) "abc is not xor3" false (S.Validate.realizes not_xor S.Library.xor3);
  match S.Validate.counterexample not_xor S.Library.xor3 with
  | Some m -> Alcotest.(check bool) "counterexample disagrees" true
                (not (Bool.equal (Lattice_core.Connectivity.eval not_xor m) (Tt.eval S.Library.xor3 m)))
  | None -> Alcotest.fail "expected a counterexample"

(* --- Altun-Riedel ---------------------------------------------------------- *)

let test_ar_all_3var_functions () =
  (* exhaustively synthesize and validate every 3-variable function *)
  for bits = 0 to 255 do
    let t = Tt.create 3 (fun m -> bits land (1 lsl m) <> 0) in
    let r = S.Altun_riedel.synthesize t in
    if not (S.Validate.realizes r.S.Altun_riedel.grid t) then
      Alcotest.failf "function %d not realized" bits
  done

let test_ar_4var_sample () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 50 do
    let bits = Random.State.bits rng land 0xFFFF in
    let t = Tt.create 4 (fun m -> bits land (1 lsl m) <> 0) in
    let r = S.Altun_riedel.synthesize t in
    if not (S.Validate.realizes r.S.Altun_riedel.grid t) then
      Alcotest.failf "4-var function %d not realized" bits
  done

let test_ar_dimensions () =
  (* lattice size = (dual products) x (function products) *)
  let r = S.Altun_riedel.synthesize S.Library.xor3 in
  Alcotest.(check int) "rows" 4 r.S.Altun_riedel.grid.Grid.rows;
  Alcotest.(check int) "cols" 4 r.S.Altun_riedel.grid.Grid.cols;
  Alcotest.(check int) "f products" 4 (Lattice_boolfn.Sop.product_count r.S.Altun_riedel.f_sop);
  Alcotest.(check int) "fD products" 4
    (Lattice_boolfn.Sop.product_count r.S.Altun_riedel.dual_sop)

let test_ar_constants () =
  let zero = Tt.create 2 (fun _ -> false) in
  let one = Tt.create 2 (fun _ -> true) in
  let rz = S.Altun_riedel.synthesize zero and ro = S.Altun_riedel.synthesize one in
  Alcotest.(check bool) "constant 0" true (S.Validate.realizes rz.S.Altun_riedel.grid zero);
  Alcotest.(check bool) "constant 1" true (S.Validate.realizes ro.S.Altun_riedel.grid one)

let test_ar_single_literal () =
  let t = Tt.create 2 (fun m -> m land 1 <> 0) in
  let r = S.Altun_riedel.synthesize t in
  Alcotest.(check bool) "f = a" true (S.Validate.realizes r.S.Altun_riedel.grid t);
  Alcotest.(check int) "1x1 lattice" 1 (Grid.size r.S.Altun_riedel.grid)

let test_ar_rejects_non_dual () =
  (* feeding f twice (f is not self-dual here) must fail the shared-literal
     property somewhere *)
  let t = Tt.create 2 (fun m -> m = 3) in
  (* f = ab *)
  let f_sop = Lattice_boolfn.Qm.cover t in
  Alcotest.(check bool) "and2 with itself is fine (shares literals)" true
    (match S.Altun_riedel.of_sops ~f_sop ~dual_sop:f_sop with
    | _ -> true
    | exception S.Altun_riedel.No_shared_literal _ -> false);
  (* f = a, g = b share nothing *)
  let fa = Lattice_boolfn.Qm.cover (Tt.create 2 (fun m -> m land 1 <> 0)) in
  let fb = Lattice_boolfn.Qm.cover (Tt.create 2 (fun m -> m land 2 <> 0)) in
  Alcotest.(check bool) "disjoint literals rejected" true
    (match S.Altun_riedel.of_sops ~f_sop:fa ~dual_sop:fb with
    | exception S.Altun_riedel.No_shared_literal _ -> true
    | _ -> false)

let test_ar_self_dual_square () =
  (* self-dual functions synthesize to square lattices *)
  let maj = Tt.majority_n 3 in
  let r = S.Altun_riedel.synthesize maj in
  Alcotest.(check int) "maj3 rows" r.S.Altun_riedel.grid.Grid.cols r.S.Altun_riedel.grid.Grid.rows;
  Alcotest.(check bool) "maj3 valid" true (S.Validate.realizes r.S.Altun_riedel.grid maj)

(* --- Exhaustive ------------------------------------------------------------ *)

let test_exhaustive_xor2 () =
  let xor2 = Tt.xor_n 2 in
  match S.Exhaustive.minimal xor2 with
  | Some (g, rows, cols) ->
    Alcotest.(check int) "area 4" 4 (rows * cols);
    Alcotest.(check bool) "valid" true (S.Validate.realizes g xor2)
  | None -> Alcotest.fail "xor2 should be realizable"

let test_exhaustive_and_or () =
  let and2 = Tt.create 2 (fun m -> m = 3) in
  (match S.Exhaustive.minimal and2 with
  | Some (g, rows, cols) ->
    Alcotest.(check int) "and2 area 2" 2 (rows * cols);
    Alcotest.(check int) "and2 is a column" 2 rows;
    Alcotest.(check bool) "valid" true (S.Validate.realizes g and2)
  | None -> Alcotest.fail "and2 should be realizable");
  let or2 = Tt.create 2 (fun m -> m <> 0) in
  match S.Exhaustive.minimal or2 with
  | Some (g, rows, cols) ->
    Alcotest.(check int) "or2 area 2" 2 (rows * cols);
    Alcotest.(check int) "or2 is a row" 1 rows;
    Alcotest.(check bool) "valid" true (S.Validate.realizes g or2)
  | None -> Alcotest.fail "or2 should be realizable"

let test_exhaustive_maj3 () =
  match S.Exhaustive.minimal (Tt.majority_n 3) with
  | Some (g, rows, cols) ->
    Alcotest.(check int) "maj3 minimal area 6" 6 (rows * cols);
    Alcotest.(check bool) "valid" true (S.Validate.realizes g (Tt.majority_n 3))
  | None -> Alcotest.fail "maj3 should be realizable"

let test_exhaustive_xor3_needs_constants () =
  (* XOR3 has no literal-only 3x3 realization but has one with constants *)
  Alcotest.(check bool) "no literal-only 3x3" true
    (S.Exhaustive.find ~rows:3 ~cols:3 S.Library.xor3 = None);
  match
    S.Exhaustive.find ~rows:3 ~cols:3 ~alphabet:S.Exhaustive.Literals_and_constants S.Library.xor3
  with
  | Some g -> Alcotest.(check bool) "found with constants" true (S.Validate.realizes g S.Library.xor3)
  | None -> Alcotest.fail "expected a 3x3 XOR3 with constants"

let test_defect_aware_mapping () =
  let maj3 = Tt.majority_n 3 in
  (* the minimal 2x3 has no slack: a dead corner kills it *)
  Alcotest.(check bool) "2x3 with dead corner: unmappable" true
    (S.Exhaustive.find_with_pins ~rows:2 ~cols:3
       ~pins:[ (0, Lattice_core.Grid.Const false) ]
       maj3
    = None);
  (* one spare column restores mappability around the defect *)
  match
    S.Exhaustive.find_with_pins ~rows:2 ~cols:4 ~pins:[ (0, Lattice_core.Grid.Const false) ] maj3
  with
  | Some g ->
    Alcotest.(check bool) "remap realizes maj3" true (S.Validate.realizes g maj3);
    (match Lattice_core.Grid.entry g 0 0 with
    | Lattice_core.Grid.Const false -> ()
    | _ -> Alcotest.fail "pin not respected")
  | None -> Alcotest.fail "expected a 2x4 remap"

let test_defect_pin_stuck_on () =
  (* stuck-ON pins are usable too *)
  let or2 = Tt.create 2 (fun m -> m <> 0) in
  match
    S.Exhaustive.find_with_pins ~rows:1 ~cols:3 ~pins:[ (1, Lattice_core.Grid.Const true) ] or2
  with
  | Some g -> Alcotest.(check bool) "hmm: stuck-on middle of an OR row" true
                (S.Validate.realizes g or2)
  | None ->
    (* a stuck-ON site in a 1-row lattice conducts always, so OR cannot be
       realized there; acceptable outcome *)
    ()

let test_pin_out_of_range () =
  Alcotest.(check bool) "bad pin rejected" true
    (match
       S.Exhaustive.find_with_pins ~rows:2 ~cols:2 ~pins:[ (9, Lattice_core.Grid.Const true) ]
         (Tt.xor_n 2)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exhaustive_count () =
  let and2 = Tt.create 2 (fun m -> m = 3) in
  let n = S.Exhaustive.count_solutions ~rows:2 ~cols:1 and2 in
  (* column entries (a,b) and (b,a) *)
  Alcotest.(check int) "two orderings" 2 n;
  let capped = S.Exhaustive.count_solutions ~rows:2 ~cols:1 ~limit:1 and2 in
  Alcotest.(check int) "limit respected" 1 capped

(* Search inputs that the search must honour or refuse: all 64
   assignments of a 6-variable target see the ON sites, and conflicting
   or meaningless pins are rejected like out-of-range ones. *)
let test_search_input_table () =
  let and6 = Tt.create 6 (fun m -> m = 63) and or6 = Tt.create 6 (fun m -> m <> 0) in
  let xor2 = Tt.xor_n 2 in
  let realizes t = function Some g -> S.Validate.realizes g t | None -> false in
  let rejects pins =
    match S.Exhaustive.find_with_pins ~rows:2 ~cols:2 ~pins xor2 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  List.iter
    (fun (name, case) -> Alcotest.(check bool) name true (case ()))
    [
      ("AND6 on a 6x1 column", fun () -> realizes and6 (S.Exhaustive.find ~rows:6 ~cols:1 and6));
      ("OR6 on a 1x6 row", fun () -> realizes or6 (S.Exhaustive.find ~rows:1 ~cols:6 or6));
      ( "AND6 minimal is the column",
        fun () ->
          match S.Exhaustive.minimal ~max_area:6 and6 with
          | Some (g, 6, 1) -> S.Validate.realizes g and6
          | _ -> false );
      ("two pins on one site", fun () -> rejects [ (0, Grid.Const true); (0, Grid.Const false) ]);
      ("pinned literal of a missing variable", fun () -> rejects [ (1, Grid.Lit (2, true)) ]);
      ("pinned literal of a negative variable", fun () -> rejects [ (1, Grid.Lit (-1, false)) ]);
    ]

(* --- Exhaustive oracle ------------------------------------------------------- *)

(* The unpruned odometer: every grid over the candidate entries, site 0
   slowest and entries in alphabet order (literals a, a', b, b', ..., then
   0, 1), each checked against the full connectivity table. [on_hit] sees
   every realizing grid in that order until it returns [true]; the result
   is the number of nodes visited. *)
let oracle_search ~rows ~cols ~alphabet ~pins target on_hit =
  let nvars = Tt.nvars target in
  let nsites = rows * cols in
  let lits = List.concat_map (fun v -> [ Grid.Lit (v, true); Grid.Lit (v, false) ]) (List.init nvars Fun.id) in
  let alpha =
    Array.of_list
      (match alphabet with
      | S.Exhaustive.Literals_only -> lits
      | S.Exhaustive.Literals_and_constants -> lits @ [ Grid.Const false; Grid.Const true ])
  in
  let candidates site = match List.assoc_opt site pins with Some e -> [| e |] | None -> alpha in
  let value entry a =
    match entry with Grid.Const b -> b | Grid.Lit (v, pol) -> Bool.equal (a land (1 lsl v) <> 0) pol
  in
  let table = Lattice_core.Connectivity.table_of_patterns ~rows ~cols in
  let nassign = 1 lsl nvars in
  let patt = Array.make nassign 0 in
  let chosen = Array.make nsites (Grid.Const false) in
  let nodes = ref 0 in
  let exception Stop in
  let rec go site =
    incr nodes;
    if site = nsites then begin
      let a = ref 0 in
      while !a < nassign && Bool.equal (Bytes.get table patt.(!a) <> '\000') (Tt.eval target !a) do
        incr a
      done;
      if !a = nassign && on_hit (Grid.create rows cols (Array.copy chosen)) then raise Stop
    end
    else
      Array.iter
        (fun entry ->
          chosen.(site) <- entry;
          for a = 0 to nassign - 1 do
            if value entry a then patt.(a) <- patt.(a) lor (1 lsl site)
          done;
          go (site + 1);
          for a = 0 to nassign - 1 do
            patt.(a) <- patt.(a) land lnot (1 lsl site)
          done)
        (candidates site)
  in
  (try go 0 with Stop -> ());
  !nodes

let oracle_find ~rows ~cols ~alphabet ~pins target =
  let found = ref None in
  ignore
    (oracle_search ~rows ~cols ~alphabet ~pins target (fun g ->
         found := Some g;
         true));
  !found

let oracle_count ~rows ~cols ~alphabet ?limit target =
  let n = ref 0 in
  ignore
    (oracle_search ~rows ~cols ~alphabet ~pins:[] target (fun _ ->
         incr n;
         Option.fold ~none:false ~some:(fun l -> !n >= l) limit));
  !n

let oracle_minimal ~alphabet ~max_area target =
  List.init max_area succ
  |> List.concat_map (fun r -> List.init (max_area / r) (fun c -> (r, c + 1)))
  |> List.stable_sort (fun (r1, c1) (r2, c2) -> compare (r1 * c1, r1) (r2 * c2, r2))
  |> List.find_map (fun (rows, cols) ->
         Option.map (fun g -> (g, rows, cols)) (oracle_find ~rows ~cols ~alphabet ~pins:[] target))

let grid_t =
  Alcotest.testable
    (fun ppf g -> Format.pp_print_string ppf (Grid.to_string ~names:(Printf.sprintf "x%d") g))
    ( = )

(* a random search input: a target over 0-3 variables (half of them the
   function of a random grid, so realizable), dims up to 3x3, 0-2 pins;
   the unpruned oracle's work is capped at 50,000 grids per call *)
let random_search_input st =
  let rec draw () =
    let nvars = Random.State.int st 4 in
    let alphabet =
      if Random.State.bool st then S.Exhaustive.Literals_only else S.Exhaustive.Literals_and_constants
    in
    let rows = 1 + Random.State.int st 3 and cols = 1 + Random.State.int st 3 in
    let k = (2 * nvars) + if alphabet = S.Exhaustive.Literals_only then 0 else 2 in
    let nsites = rows * cols in
    if float_of_int k ** float_of_int nsites > 50_000.0 then draw ()
    else begin
      let entry () =
        match Random.State.int st (if nvars = 0 then 2 else 4) with
        | 0 -> Grid.Const false
        | 1 -> Grid.Const true
        | _ -> Grid.Lit (Random.State.int st nvars, Random.State.bool st)
      in
      let sites = List.sort_uniq compare (List.init (Random.State.int st 3) (fun _ -> Random.State.int st nsites)) in
      let pins = List.map (fun s -> (s, entry ())) sites in
      let target =
        if k > 0 && Random.State.bool st then begin
          (* the [i]-th entry of the alphabet, in the search's order *)
          let entry_of i =
            if i < 2 * nvars then Grid.Lit (i / 2, i mod 2 = 0) else Grid.Const (i = 2 * nvars + 1)
          in
          let g = Grid.create rows cols (Array.init nsites (fun _ -> entry_of (Random.State.int st k))) in
          Tt.create nvars (Lattice_core.Connectivity.eval g)
        end
        else begin
          let bits = Random.State.bits st in
          Tt.create nvars (fun m -> bits land (1 lsl m) <> 0)
        end
      in
      (alphabet, rows, cols, pins, target)
    end
  in
  draw ()

let test_oracle_random () =
  let st = Random.State.make [| 0x0dd0 |] in
  let grid_opt = Alcotest.option grid_t in
  for case = 1 to 320 do
    let alphabet, rows, cols, pins, target = random_search_input st in
    let name what = Printf.sprintf "case %d %dx%d: %s" case rows cols what in
    Alcotest.check grid_opt (name "find")
      (oracle_find ~rows ~cols ~alphabet ~pins:[] target)
      (S.Exhaustive.find ~rows ~cols ~alphabet target);
    Alcotest.check grid_opt (name "find_with_pins")
      (oracle_find ~rows ~cols ~alphabet ~pins target)
      (S.Exhaustive.find_with_pins ~rows ~cols ~alphabet ~pins target);
    Alcotest.(check int) (name "count_solutions")
      (oracle_count ~rows ~cols ~alphabet target)
      (S.Exhaustive.count_solutions ~rows ~cols ~alphabet target);
    let limit = 1 + Random.State.int st 4 in
    Alcotest.(check int) (name "count_solutions ~limit")
      (oracle_count ~rows ~cols ~alphabet ~limit target)
      (S.Exhaustive.count_solutions ~rows ~cols ~alphabet ~limit target);
    Alcotest.(check bool) (name "minimal ~max_area:6") true
      (oracle_minimal ~alphabet ~max_area:6 target = S.Exhaustive.minimal ~alphabet ~max_area:6 target)
  done

(* the fault campaign's repair searches for the maj3 2x3 lattice: every
   site stuck OFF and stuck ON, in place and widened by a spare column *)
let test_oracle_maj3_repairs () =
  let maj3 = Tt.majority_n 3 in
  let alphabet = S.Exhaustive.Literals_and_constants in
  let grid_opt = Alcotest.option grid_t in
  List.iter
    (fun cols ->
      for site = 0 to 5 do
        List.iter
          (fun stuck ->
            let pins = [ (((site / 3) * cols) + (site mod 3), Grid.Const stuck) ] in
            Alcotest.check grid_opt
              (Printf.sprintf "2x%d (%d,%d) stuck-%s" cols (site / 3) (site mod 3)
                 (if stuck then "ON" else "OFF"))
              (oracle_find ~rows:2 ~cols ~alphabet ~pins maj3)
              (S.Exhaustive.find_with_pins ~rows:2 ~cols ~alphabet ~pins maj3))
          [ false; true ]
      done)
    [ 3; 4 ]

(* the campaign's costliest repair search: maj3 with (1,0) stuck ON,
   widened to 2x4; [synthesis.search_nodes] carries its visited nodes *)
let test_search_nodes () =
  let module M = Lattice_obs.Metrics in
  let maj3 = Tt.majority_n 3 in
  let alphabet = S.Exhaustive.Literals_and_constants in
  let pins = [ (4, Grid.Const true) ] in
  let counter = M.counter "synthesis.search_nodes" in
  let was_on = M.on () in
  M.set_enabled true;
  let before = M.Counter.get counter in
  let found = S.Exhaustive.find_with_pins ~rows:2 ~cols:4 ~alphabet ~pins maj3 in
  let nodes = M.Counter.get counter - before in
  M.set_enabled was_on;
  Alcotest.(check bool) "remap found" true (Option.is_some found);
  Alcotest.(check bool) (Printf.sprintf "%d nodes < 20000" nodes) true (nodes > 0 && nodes < 20_000);
  Alcotest.(check int) "unpruned odometer" 1_801_997
    (oracle_search ~rows:2 ~cols:4 ~alphabet ~pins maj3 (fun _ -> true))

(* --- Faults ------------------------------------------------------------------ *)

let test_faults_enumeration () =
  let grid = S.Library.xor3_3x3 in
  let faults = S.Faults.all_faults grid in
  Alcotest.(check int) "two faults per site" 18 (List.length faults)

let test_faults_injection () =
  let grid = S.Library.xor3_3x3 in
  let f = { S.Faults.row = 0; col = 0; kind = S.Faults.Stuck_off } in
  let faulty = S.Faults.inject grid f in
  (match Lattice_core.Grid.entry faulty 0 0 with
  | Lattice_core.Grid.Const false -> ()
  | _ -> Alcotest.fail "expected constant 0");
  (* injection does not mutate the original *)
  match Lattice_core.Grid.entry grid 0 0 with
  | Lattice_core.Grid.Lit (0, true) -> ()
  | _ -> Alcotest.fail "original grid mutated"

let test_faults_center_const_masked () =
  (* the 3x3 XOR3 centre is a constant 1: stuck-ON there is no change *)
  let grid = S.Library.xor3_3x3 in
  let f = { S.Faults.row = 1; col = 1; kind = S.Faults.Stuck_on } in
  Alcotest.(check bool) "masked" false (S.Faults.is_detectable grid f);
  let f_off = { f with S.Faults.kind = S.Faults.Stuck_off } in
  Alcotest.(check bool) "stuck-off detectable" true (S.Faults.is_detectable grid f_off)

let test_faults_analysis_xor3 () =
  let a = S.Faults.analyze S.Library.xor3_3x3 in
  Alcotest.(check int) "total" 18 a.S.Faults.total;
  Alcotest.(check int) "one masked fault" 17 a.S.Faults.detectable;
  (* the greedy test set must reach full coverage of detectable faults *)
  Alcotest.(check (float 1e-9)) "full coverage" 1.0
    (S.Faults.coverage S.Library.xor3_3x3 ~vectors:a.S.Faults.test_set)

let test_faults_partial_coverage () =
  let grid = S.Library.xor3_3x3 in
  let c = S.Faults.coverage grid ~vectors:[ 0 ] in
  Alcotest.(check bool) "single vector covers some but not all" true (c > 0.0 && c < 1.0)

let test_faults_detecting_vectors_semantics () =
  (* on each detecting vector the faulty and fault-free outputs differ *)
  let grid = S.Library.maj3_2x3 in
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let faulty = S.Faults.inject grid f in
          Alcotest.(check bool) "disagreement" false
            (Bool.equal
               (Lattice_core.Connectivity.eval grid v)
               (Lattice_core.Connectivity.eval faulty v)))
        (S.Faults.detecting_vectors grid f))
    (S.Faults.all_faults grid)

(* --- Library --------------------------------------------------------------- *)

let test_library_grids () =
  Alcotest.(check bool) "xor3 3x3" true (S.Validate.realizes S.Library.xor3_3x3 S.Library.xor3);
  Alcotest.(check bool) "xnor3 3x3" true
    (S.Validate.realizes S.Library.xnor3_3x3 (Tt.complement S.Library.xor3));
  Alcotest.(check bool) "xor3 3x4" true (S.Validate.realizes S.Library.xor3_3x4 S.Library.xor3);
  Alcotest.(check bool) "maj3 2x3" true
    (S.Validate.realizes S.Library.maj3_2x3 (Tt.majority_n 3));
  Alcotest.(check bool) "xor3 SOP" true
    (Tt.equal (Tt.of_sop S.Library.xor3_sop) S.Library.xor3)

let test_library_sizes () =
  Alcotest.(check int) "3x3 size" 9 (Grid.size S.Library.xor3_3x3);
  Alcotest.(check int) "3x4 size" 12 (Grid.size S.Library.xor3_3x4);
  Alcotest.(check int) "xor3 sop products" 4
    (Lattice_boolfn.Sop.product_count S.Library.xor3_sop)

let prop_ar_random_functions =
  QCheck2.Test.make ~name:"Altun-Riedel valid on random 4-var functions" ~count:60
    QCheck2.Gen.(int_bound 0xFFFF)
    (fun bits ->
      let t = Tt.create 4 (fun m -> bits land (1 lsl m) <> 0) in
      let r = S.Altun_riedel.synthesize t in
      S.Validate.realizes r.S.Altun_riedel.grid t)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "synthesis"
    [
      ( "validate",
        [
          Alcotest.test_case "positive" `Quick test_validate_positive;
          Alcotest.test_case "negative + counterexample" `Quick test_validate_negative;
        ] );
      ( "altun_riedel",
        [
          Alcotest.test_case "all 256 3-var functions" `Quick test_ar_all_3var_functions;
          Alcotest.test_case "random 4-var functions" `Quick test_ar_4var_sample;
          Alcotest.test_case "xor3 dimensions" `Quick test_ar_dimensions;
          Alcotest.test_case "constants" `Quick test_ar_constants;
          Alcotest.test_case "single literal" `Quick test_ar_single_literal;
          Alcotest.test_case "non-dual covers rejected" `Quick test_ar_rejects_non_dual;
          Alcotest.test_case "self-dual gives square" `Quick test_ar_self_dual_square;
          qc prop_ar_random_functions;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "xor2 minimal" `Quick test_exhaustive_xor2;
          Alcotest.test_case "and2 / or2 minimal" `Quick test_exhaustive_and_or;
          Alcotest.test_case "maj3 minimal" `Quick test_exhaustive_maj3;
          Alcotest.test_case "xor3 needs constants at 3x3" `Slow
            test_exhaustive_xor3_needs_constants;
          Alcotest.test_case "solution counting" `Quick test_exhaustive_count;
          Alcotest.test_case "defect-aware mapping" `Quick test_defect_aware_mapping;
          Alcotest.test_case "stuck-on pins" `Quick test_defect_pin_stuck_on;
          Alcotest.test_case "pin validation" `Quick test_pin_out_of_range;
          Alcotest.test_case "search input table" `Quick test_search_input_table;
          Alcotest.test_case "oracle: random inputs" `Quick test_oracle_random;
          Alcotest.test_case "oracle: maj3 repair searches" `Quick test_oracle_maj3_repairs;
          Alcotest.test_case "search node count" `Quick test_search_nodes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "enumeration" `Quick test_faults_enumeration;
          Alcotest.test_case "injection" `Quick test_faults_injection;
          Alcotest.test_case "masked constant site" `Quick test_faults_center_const_masked;
          Alcotest.test_case "XOR3 campaign" `Quick test_faults_analysis_xor3;
          Alcotest.test_case "partial coverage" `Quick test_faults_partial_coverage;
          Alcotest.test_case "vector semantics" `Quick test_faults_detecting_vectors_semantics;
        ] );
      ( "library",
        [
          Alcotest.test_case "grids realize their targets" `Quick test_library_grids;
          Alcotest.test_case "sizes" `Quick test_library_sizes;
        ] );
    ]
