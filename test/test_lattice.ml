(* Tests for the lattice core: grids, connectivity, irredundant paths,
   lattice functions, Table I. *)

module Grid = Lattice_core.Grid
module Conn = Lattice_core.Connectivity
module Paths = Lattice_core.Paths
module Lf = Lattice_core.Lattice_function
module Table1 = Lattice_core.Table1
module Sop = Lattice_boolfn.Sop

(* --- Grid --------------------------------------------------------------- *)

let test_grid_of_strings () =
  let g, names = Grid.of_strings [ [ "a"; "b'" ]; [ "1"; "0" ] ] in
  Alcotest.(check int) "rows" 2 g.Grid.rows;
  Alcotest.(check int) "cols" 2 g.Grid.cols;
  Alcotest.(check int) "nvars" 2 (Grid.nvars g);
  Alcotest.(check string) "names" "a" names.(0);
  (match Grid.entry g 0 1 with
  | Grid.Lit (1, false) -> ()
  | _ -> Alcotest.fail "expected b'");
  (match Grid.entry g 1 0 with Grid.Const true -> () | _ -> Alcotest.fail "expected 1");
  match Grid.entry g 1 1 with Grid.Const false -> () | _ -> Alcotest.fail "expected 0"

let test_grid_bad_input () =
  Alcotest.(check bool) "ragged" true
    (match Grid.of_strings [ [ "a" ]; [ "a"; "b" ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty cell" true
    (match Grid.of_strings [ [ "" ] ] with exception Invalid_argument _ -> true | _ -> false)

let test_grid_on_pattern () =
  let g, _ = Grid.of_strings [ [ "a"; "a'"; "1" ] ] in
  Alcotest.(check (array bool)) "a=1" [| true; false; true |] (Grid.on_pattern g 0b1);
  Alcotest.(check (array bool)) "a=0" [| false; true; true |] (Grid.on_pattern g 0b0)

let test_grid_prime_parsing () =
  let g, names = Grid.of_strings [ [ "x''" ]; [ "x'" ] ] in
  Alcotest.(check int) "one var" 1 (Array.length names);
  (match Grid.entry g 0 0 with Grid.Lit (0, true) -> () | _ -> Alcotest.fail "x'' = x");
  match Grid.entry g 1 0 with Grid.Lit (0, false) -> () | _ -> Alcotest.fail "x' negative"

(* --- Connectivity ------------------------------------------------------- *)

let test_connectivity_simple () =
  (* vertical wire in a 2x2 *)
  Alcotest.(check bool) "column conducts" true
    (Conn.connected_bfs ~rows:2 ~cols:2 [| true; false; true; false |]);
  Alcotest.(check bool) "broken column" false
    (Conn.connected_bfs ~rows:2 ~cols:2 [| true; false; false; true |]);
  Alcotest.(check bool) "zigzag" true
    (Conn.connected_bfs ~rows:2 ~cols:2 [| true; false; true; true |] |> fun x -> x);
  Alcotest.(check bool) "all off" false
    (Conn.connected_bfs ~rows:2 ~cols:2 [| false; false; false; false |])

let test_connectivity_single_row () =
  Alcotest.(check bool) "1xN: any on cell conducts" true
    (Conn.connected_bfs ~rows:1 ~cols:3 [| false; true; false |]);
  Alcotest.(check bool) "1xN: all off" false
    (Conn.connected_bfs ~rows:1 ~cols:3 [| false; false; false |])

let prop_bfs_equals_union_find =
  QCheck2.Test.make ~name:"BFS = union-find on random patterns" ~count:500
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 5) (int_range 0 0x1FFFFFF))
    (fun (rows, cols, bits) ->
      let on = Array.init (rows * cols) (fun i -> bits land (1 lsl i) <> 0) in
      Bool.equal (Conn.connected_bfs ~rows ~cols on) (Conn.connected_union_find ~rows ~cols on))

let test_pattern_table () =
  let table = Conn.table_of_patterns ~rows:2 ~cols:2 in
  let on_of p = Array.init 4 (fun i -> p land (1 lsl i) <> 0) in
  for p = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "pattern %d" p)
      (Conn.connected_bfs ~rows:2 ~cols:2 (on_of p))
      (Bytes.get table p <> '\000')
  done

let test_eval_assigned () =
  let g, _ = Grid.of_strings [ [ "a" ]; [ "b" ] ] in
  Alcotest.(check bool) "a=b=1 conducts" true (Conn.eval g 0b11);
  Alcotest.(check bool) "a=1 b=0" false (Conn.eval g 0b01)

(* --- Paths -------------------------------------------------------------- *)

let sets_of_paths paths = List.map (fun p -> List.sort Int.compare (Array.to_list p)) paths

let irredundant_paths ~rows ~cols =
  let acc = ref [] in
  Paths.iter_irredundant ~rows ~cols (fun p -> acc := Array.copy p :: !acc);
  List.rev !acc

(* the two histogram backends: bucketing the enumerated paths by length,
   and the ZDD's family histogram *)
let histogram_enum ~rows ~cols =
  let hist = Array.make ((rows * cols) + 1) 0 in
  Paths.iter_irredundant ~rows ~cols (fun p -> hist.(Array.length p) <- hist.(Array.length p) + 1);
  hist

let histogram_zdd ~rows ~cols = Lattice_core.Zdd.(count_by_size (of_lattice ~rows ~cols))

let test_paths_match_brute_force () =
  List.iter
    (fun (rows, cols) ->
      let fast =
        List.sort compare (sets_of_paths (irredundant_paths ~rows ~cols))
      in
      let brute = Paths.irredundant_sets_brute ~rows ~cols in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "%dx%d" rows cols)
        brute fast)
    [ (1, 1); (1, 3); (2, 2); (2, 3); (3, 2); (3, 3); (3, 4); (4, 3); (2, 5); (4, 4) ]

let test_paths_are_chordless () =
  (* no two non-consecutive cells of a path may be adjacent *)
  let rows = 4 and cols = 4 in
  Paths.iter_irredundant ~rows ~cols (fun path ->
      let n = Array.length path in
      for i = 0 to n - 1 do
        for j = i + 2 to n - 1 do
          let a = path.(i) and b = path.(j) in
          let ra = a / cols and ca = a mod cols and rb = b / cols and cb = b mod cols in
          let adjacent = abs (ra - rb) + abs (ca - cb) = 1 in
          if adjacent then
            Alcotest.failf "chord between positions %d and %d in a path" i j
        done
      done)

let test_paths_touch_plates_once () =
  let rows = 4 and cols = 4 in
  Paths.iter_irredundant ~rows ~cols (fun path ->
      let n = Array.length path in
      Array.iteri
        (fun i site ->
          let r = site / cols in
          if r = 0 && i <> 0 then Alcotest.fail "interior top-row cell";
          if r = rows - 1 && i <> n - 1 then Alcotest.fail "interior bottom-row cell")
        path)

let test_paths_distinct_sets () =
  let seen = Hashtbl.create 64 in
  Paths.iter_irredundant ~rows:4 ~cols:4 (fun path ->
      let key = List.sort Int.compare (Array.to_list path) in
      if Hashtbl.mem seen key then Alcotest.fail "duplicate product set";
      Hashtbl.replace seen key ())

let test_length_histogram () =
  (* Fig 2c: the 3x3 function has 3 products of 3 literals, 4 of 4, 2 of 5 *)
  let h = Paths.length_histogram ~rows:3 ~cols:3 in
  Alcotest.(check int) "size-3 products" 3 h.(3);
  Alcotest.(check int) "size-4 products" 4 h.(4);
  Alcotest.(check int) "size-5 products" 2 h.(5);
  Alcotest.(check int) "total" 9 (Array.fold_left ( + ) 0 h);
  (* histogram total always equals the product count *)
  List.iter
    (fun (m, n) ->
      Alcotest.(check int)
        (Printf.sprintf "%dx%d total" m n)
        (Paths.count_irredundant ~rows:m ~cols:n)
        (Array.fold_left ( + ) 0 (Paths.length_histogram ~rows:m ~cols:n)))
    [ (2, 4); (4, 2); (4, 4); (5, 3) ]

let test_count_edge_cases () =
  Alcotest.(check int) "1x1" 1 (Paths.count_irredundant ~rows:1 ~cols:1);
  Alcotest.(check int) "1x7: one product per column" 7 (Paths.count_irredundant ~rows:1 ~cols:7);
  Alcotest.(check int) "5x1: single column path" 1 (Paths.count_irredundant ~rows:5 ~cols:1);
  Alcotest.(check int) "2x2" 2 (Paths.count_irredundant ~rows:2 ~cols:2)

(* --- ZDD ----------------------------------------------------------------- *)

module Zdd = Lattice_core.Zdd

let test_zdd_matches_enum () =
  (* the ZDD and the reference DFS enumeration agree on every small board *)
  for m = 1 to 7 do
    for n = 1 to 7 do
      Alcotest.(check int)
        (Printf.sprintf "%dx%d" m n)
        (Paths.count_irredundant_enum ~rows:m ~cols:n)
        (Paths.count_irredundant ~rows:m ~cols:n)
    done
  done

let test_zdd_histogram_matches_enum () =
  List.iter
    (fun (m, n) ->
      Alcotest.(check (array int))
        (Printf.sprintf "%dx%d histogram" m n)
        (histogram_enum ~rows:m ~cols:n)
        (histogram_zdd ~rows:m ~cols:n))
    [ (5, 5); (3, 6); (6, 3); (1, 4); (4, 1) ]

let test_crossover_boundary_parity () =
  (* the enum/ZDD crossover (enumeration iff both dims < 8) must be
     invisible: both pinned backends and the auto dispatch agree on every
     cell around the boundary, counts and histograms alike *)
  let d = 8 in
  List.iter
    (fun (m, n) ->
      let enum = Paths.count_irredundant_enum ~rows:m ~cols:n in
      Alcotest.(check int)
        (Printf.sprintf "%dx%d enum = zdd" m n)
        enum
        (Paths.count_irredundant_zdd ~rows:m ~cols:n);
      Alcotest.(check int)
        (Printf.sprintf "%dx%d auto dispatch" m n)
        enum
        (Paths.count_irredundant ~rows:m ~cols:n);
      let enum_hist = histogram_enum ~rows:m ~cols:n in
      Alcotest.(check (array int))
        (Printf.sprintf "%dx%d histogram parity" m n)
        enum_hist (histogram_zdd ~rows:m ~cols:n);
      Alcotest.(check (array int))
        (Printf.sprintf "%dx%d histogram auto dispatch" m n)
        enum_hist (Paths.length_histogram ~rows:m ~cols:n))
    [ (d - 1, d - 1); (d - 1, d); (d, d - 1); (d, d) ]

let test_zdd_structure () =
  let z = Zdd.of_lattice ~rows:4 ~cols:4 in
  Alcotest.(check int) "count = paper 4x4" (Table1.paper_value ~rows:4 ~cols:4) (Zdd.count z);
  Alcotest.(check int) "histogram over 16 cells" 17 (Array.length (Zdd.count_by_size z))

(* --- Table 1 ------------------------------------------------------------ *)

let test_table1_paper_values () =
  (* every published cell up to 6x6, plus tall/wide asymmetric entries *)
  List.iter
    (fun (m, n) ->
      Alcotest.(check int)
        (Printf.sprintf "%dx%d" m n)
        (Table1.paper_value ~rows:m ~cols:n)
        (Table1.count ~rows:m ~cols:n))
    [
      (2, 2); (2, 5); (2, 9); (3, 3); (3, 7); (4, 4); (4, 6); (5, 5); (6, 6); (9, 2); (7, 3);
      (5, 8); (8, 4); (9, 4); (6, 7);
    ]

let test_table1_out_of_range () =
  Alcotest.check_raises "below range" (Invalid_argument "Table1.paper_value: published range is 2..9")
    (fun () -> ignore (Table1.paper_value ~rows:1 ~cols:3))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_table1_render () =
  let s = Table1.render ~max_dim:4 ~compute:false () in
  Alcotest.(check bool) "contains 36" true (contains s "36");
  Alcotest.(check bool) "contains header" true (contains s "m/n")

(* diagonal entries past the published table, as the ZDD counter gives them *)
let extended_diagonal = [ (10, 2_864_677_868); (11, 328_777_220_927); (12, 63_076_542_161_104) ]

let test_table1_extended_recompute_10 () =
  Alcotest.(check int) "10x10 recomputed" 2_864_677_868 (Table1.count ~rows:10 ~cols:10)

let test_table1_extended_recompute_full () =
  (* 12x12 takes ~10 s, so it only recomputes under FTL_TABLE1_FULL=1
     (the same switch the Table I experiment uses); 11x11 always runs *)
  let full =
    match Sys.getenv_opt "FTL_TABLE1_FULL" with Some ("1" | "true") -> true | _ -> false
  in
  List.iter
    (fun (d, want) ->
      if d <= 11 || full then
        Alcotest.(check int) (Printf.sprintf "%dx%d recomputed" d d) want
          (Table1.count ~rows:d ~cols:d))
    extended_diagonal

let test_table1_memo_hammer () =
  (* four domains hammer the memoized counter on overlapping fresh
     dimensions; without the mutex this races on the memo Hashtbl *)
  let dims = [ (8, 5); (5, 8); (8, 6); (6, 8); (7, 7) ] in
  let expected = List.map (fun (m, n) -> Paths.count_irredundant ~rows:m ~cols:n) dims in
  let worker () =
    let ok = ref true in
    for _ = 1 to 3 do
      List.iter2
        (fun (m, n) want -> if Table1.count ~rows:m ~cols:n <> want then ok := false)
        dims expected
    done;
    !ok
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter
    (fun d -> Alcotest.(check bool) "domain saw consistent counts" true (Domain.join d))
    domains

let test_table1_transpose_symmetry () =
  (* path counting is not symmetric in general (cf. 6x6 vs published
     asymmetry of 4x9 vs 9x4), but 2xN vs Nx2 have known values *)
  Alcotest.(check int) "2x9" 9 (Table1.count ~rows:2 ~cols:9);
  Alcotest.(check int) "9x2" 68 (Table1.count ~rows:9 ~cols:2)

(* --- Lattice function ---------------------------------------------------- *)

let test_f3x3_products () =
  let f = Lf.of_generic ~rows:3 ~cols:3 in
  Alcotest.(check int) "9 products" 9 (Sop.product_count f);
  (* x1 x4 x7 (sites 0, 3, 6) must be one of them *)
  let target = Lattice_boolfn.Cube.of_masks ~pos:(0b1001001) ~neg:0 in
  Alcotest.(check bool) "contains left column" true
    (List.exists (fun c -> Lattice_boolfn.Cube.compare c target = 0) (Sop.cubes f))

let test_of_generic_matches_connectivity () =
  (* the SOP and the direct connectivity evaluation must agree on every
     assignment of the 3x3 lattice *)
  let f = Lf.of_generic ~rows:3 ~cols:3 in
  let g = Oracle.generic_grid 3 3 in
  for m = 0 to 511 do
    if not (Bool.equal (Oracle.sop_eval f m) (Conn.eval g m)) then
      Alcotest.failf "disagreement at assignment %d" m
  done

let test_of_assigned_xor3 () =
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  let f = Lf.of_assigned grid in
  let tt = Oracle.tt_of_sop f in
  Alcotest.(check bool) "SOP = XOR3" true
    (Oracle.tt_equal tt (Lattice_boolfn.Truthtable.xor_n 3))

let test_of_assigned_constants () =
  let g0, _ = Grid.of_strings [ [ "0" ]; [ "a" ] ] in
  let f0 = Lf.of_assigned g0 in
  Alcotest.(check int) "0 kills the path" 0 (Sop.product_count f0);
  let g1, _ = Grid.of_strings [ [ "1" ]; [ "a" ] ] in
  let f1 = Lf.of_assigned g1 in
  Alcotest.(check string) "1 is dropped from the product" "a"
    (Sop.to_string ~names:Sop.alpha_names f1)

let test_of_assigned_contradiction () =
  (* a and a' in the same path: product vanishes *)
  let g, _ = Grid.of_strings [ [ "a" ]; [ "a'" ] ] in
  Alcotest.(check int) "contradictory path" 0 (Sop.product_count (Lf.of_assigned g))

let test_product_strings () =
  let ps = Lf.product_strings ~rows:2 ~cols:2 in
  Alcotest.(check (list string)) "2x2 products" [ "x1x3"; "x2x4" ] (List.sort compare ps)

let prop_assigned_sop_matches_eval =
  (* for random small assigned grids the extracted SOP must equal the
     connectivity semantics on every assignment *)
  let grid_gen =
    let open QCheck2.Gen in
    let entry_gen =
      oneof
        [
          (let* v = int_range 0 2 and* p = bool in
           return (Grid.Lit (v, p)));
          return (Grid.Const true);
          return (Grid.Const false);
        ]
    in
    let* rows = int_range 1 3 and* cols = int_range 1 3 in
    let* entries = array_size (return (rows * cols)) entry_gen in
    return (Grid.create rows cols entries)
  in
  QCheck2.Test.make ~name:"of_assigned matches connectivity semantics" ~count:300 grid_gen
    (fun g ->
      let f = Lf.of_assigned g in
      let ok = ref true in
      for m = 0 to 7 do
        if not (Bool.equal (Oracle.sop_eval f m) (Conn.eval g m)) then ok := false
      done;
      !ok)

(* --- Compose -------------------------------------------------------------- *)

module Compose = Lattice_core.Compose
module Expr = Lattice_boolfn.Expr

let realizes_expr g e nvars =
  let ok = ref true in
  for m = 0 to (1 lsl nvars) - 1 do
    if not (Bool.equal (Oracle.expr_eval e m) (Conn.eval g m)) then ok := false
  done;
  !ok

let test_compose_primitives () =
  let a = Expr.Var 0 and b = Expr.Var 1 in
  let composes e nvars = realizes_expr (Compose.of_expr e) e nvars in
  Alcotest.(check bool) "a or b" true (composes (Expr.Or (a, b)) 2);
  Alcotest.(check bool) "a and b" true (composes (Expr.And (a, b)) 2);
  Alcotest.(check bool) "constants" true (composes (Expr.Const true) 1)

let test_compose_spacer_necessity () =
  (* two 3x1 columns side by side WITHOUT the spacer conduct under
     x1 x3 x4 x6 with neither column complete: the spacer is load-bearing *)
  let g = Grid.create 3 2 [| Grid.Lit (0, true); Grid.Lit (1, true);
                             Grid.Lit (2, true); Grid.Lit (3, true);
                             Grid.Lit (4, true); Grid.Lit (5, true) |] in
  (* ON: x0 x2 x3 x5 (left top, left mid, right mid, right bottom) *)
  let m = 0b101101 in
  Alcotest.(check bool) "crossing path conducts" true (Conn.eval g m);
  (* with the composed (spacered) OR of the two columns' products it
     must not *)
  let column a b c = Expr.And (Expr.And (Expr.Var a, Expr.Var b), Expr.Var c) in
  Alcotest.(check bool) "spacered OR blocks it" false
    (Conn.eval (Compose.of_expr (Expr.Or (column 0 2 4, column 1 3 5))) m)

let test_compose_padding_preserves () =
  (* OR pads the shorter operand with ON rows, AND the narrower one with
     OFF columns: the tall [a b c] beside the 1x1 [d], and the wide
     [a + b + c] over [d] *)
  let a = Expr.Var 0 and b = Expr.Var 1 and c = Expr.Var 2 and d = Expr.Var 3 in
  let height = Expr.Or (Expr.And (Expr.And (a, b), c), d) in
  let width = Expr.And (Expr.Or (Expr.Or (a, b), c), d) in
  let gh = Compose.of_expr height and gw = Compose.of_expr width in
  Alcotest.(check bool) "height pad" true (gh.Grid.rows > 1);
  Alcotest.(check bool) "width pad" true (gw.Grid.cols > 1);
  for m = 0 to 15 do
    Alcotest.(check bool) "height pad" (Oracle.expr_eval height m) (Conn.eval gh m);
    Alcotest.(check bool) "width pad" (Oracle.expr_eval width m) (Conn.eval gw m)
  done

let test_compose_xor3 () =
  let e, _ = Expr.parse "a ^ b ^ c" in
  let g = Compose.of_expr e in
  Alcotest.(check bool) "composed xor3" true (realizes_expr g e 3)

let random_expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof [ (int_range 0 3 >|= fun v -> Expr.Var v); (bool >|= fun b -> Expr.Const b) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            (self (depth - 1) >|= fun e -> Expr.Not e);
            (pair (self (depth - 1)) (self (depth - 1)) >|= fun (a, b) -> Expr.And (a, b));
            (pair (self (depth - 1)) (self (depth - 1)) >|= fun (a, b) -> Expr.Or (a, b));
            (pair (self (depth - 1)) (self (depth - 1)) >|= fun (a, b) -> Expr.Xor (a, b));
          ])
    4

let prop_compose_correct =
  QCheck2.Test.make ~name:"Compose.of_expr realizes the expression" ~count:300 random_expr_gen
    (fun e -> realizes_expr (Compose.of_expr e) e 4)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "lattice"
    [
      ( "grid",
        [
          Alcotest.test_case "of_strings" `Quick test_grid_of_strings;
          Alcotest.test_case "bad input" `Quick test_grid_bad_input;
          Alcotest.test_case "on_pattern" `Quick test_grid_on_pattern;
          Alcotest.test_case "prime parsing" `Quick test_grid_prime_parsing;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "simple patterns" `Quick test_connectivity_simple;
          Alcotest.test_case "single row" `Quick test_connectivity_single_row;
          Alcotest.test_case "pattern table" `Quick test_pattern_table;
          Alcotest.test_case "eval assigned" `Quick test_eval_assigned;
          qc prop_bfs_equals_union_find;
        ] );
      ( "paths",
        [
          Alcotest.test_case "matches brute force" `Quick test_paths_match_brute_force;
          Alcotest.test_case "paths are chordless" `Quick test_paths_are_chordless;
          Alcotest.test_case "plates touched once" `Quick test_paths_touch_plates_once;
          Alcotest.test_case "distinct product sets" `Quick test_paths_distinct_sets;
          Alcotest.test_case "length histogram" `Quick test_length_histogram;
          Alcotest.test_case "edge cases" `Quick test_count_edge_cases;
        ] );
      ( "zdd",
        [
          Alcotest.test_case "matches enumeration to 7x7" `Quick test_zdd_matches_enum;
          Alcotest.test_case "histogram matches enumeration" `Quick
            test_zdd_histogram_matches_enum;
          Alcotest.test_case "structure of 4x4" `Quick test_zdd_structure;
          Alcotest.test_case "crossover boundary parity" `Quick test_crossover_boundary_parity;
        ] );
      ( "table1",
        [
          Alcotest.test_case "paper values" `Quick test_table1_paper_values;
          Alcotest.test_case "range check" `Quick test_table1_out_of_range;
          Alcotest.test_case "render" `Quick test_table1_render;
          Alcotest.test_case "extended 10x10 recompute" `Quick test_table1_extended_recompute_10;
          Alcotest.test_case "extended diagonal recompute" `Slow
            test_table1_extended_recompute_full;
          Alcotest.test_case "asymmetry 2x9 vs 9x2" `Quick test_table1_transpose_symmetry;
          Alcotest.test_case "memo hammer, 4 domains" `Quick test_table1_memo_hammer;
        ] );
      ( "lattice_function",
        [
          Alcotest.test_case "f3x3 products" `Quick test_f3x3_products;
          Alcotest.test_case "SOP = connectivity (generic 3x3)" `Quick
            test_of_generic_matches_connectivity;
          Alcotest.test_case "assigned XOR3" `Quick test_of_assigned_xor3;
          Alcotest.test_case "constants" `Quick test_of_assigned_constants;
          Alcotest.test_case "contradictory literals" `Quick test_of_assigned_contradiction;
          Alcotest.test_case "product strings 2x2" `Quick test_product_strings;
          qc prop_assigned_sop_matches_eval;
        ] );
      ( "compose",
        [
          Alcotest.test_case "primitives" `Quick test_compose_primitives;
          Alcotest.test_case "spacer necessity" `Quick test_compose_spacer_necessity;
          Alcotest.test_case "padding preserves function" `Quick test_compose_padding_preserves;
          Alcotest.test_case "xor3" `Quick test_compose_xor3;
          qc prop_compose_correct;
        ] );
    ]
