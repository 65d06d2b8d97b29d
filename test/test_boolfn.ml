(* Tests for the Boolean-function substrate. *)

module Cube = Lattice_boolfn.Cube
module Sop = Lattice_boolfn.Sop
module Tt = Lattice_boolfn.Truthtable
module Qm = Lattice_boolfn.Qm
module Expr = Lattice_boolfn.Expr

(* --- Cube --------------------------------------------------------------- *)

let test_cube_literals () =
  let c = Cube.of_literals [ (2, true); (0, false); (5, true) ] in
  Alcotest.(check (list (pair int bool)))
    "literals sorted" [ (0, false); (2, true); (5, true) ] (Cube.literals c);
  Alcotest.(check int) "size" 3 (Cube.size c);
  Alcotest.(check string) "render" "a' c f" (Cube.to_string ~names:Sop.alpha_names c)

let test_cube_contradiction () =
  Alcotest.(check bool) "x and x' contradict" true
    (match Cube.of_literals [ (1, true); (1, false) ] with
    | exception Cube.Contradictory -> true
    | _ -> false);
  (* idempotent repetition is fine *)
  let c = Cube.of_literals [ (1, true); (1, true) ] in
  Alcotest.(check int) "idempotent" 1 (Cube.size c)

let test_cube_eval () =
  let c = Cube.of_literals [ (0, true); (1, false) ] in
  Alcotest.(check bool) "a=1 b=0" true (Cube.eval c 0b01);
  Alcotest.(check bool) "a=1 b=1" false (Cube.eval c 0b11);
  Alcotest.(check bool) "a=0 b=0" false (Cube.eval c 0b00);
  Alcotest.(check bool) "empty cube true" true (Cube.eval Cube.one 0b1010)

let cube_gen nvars =
  let open QCheck2.Gen in
  list_size (int_range 0 nvars) (pair (int_range 0 (nvars - 1)) bool) >|= fun lits ->
  try Some (Cube.of_literals lits) with Cube.Contradictory -> None

let prop_cube_implies_semantic =
  (* implies a b must coincide with pointwise implication over assignments *)
  QCheck2.Test.make ~name:"Cube.implies = semantic implication" ~count:300
    QCheck2.Gen.(pair (cube_gen 4) (cube_gen 4))
    (fun (a, b) ->
      match (a, b) with
      | Some a, Some b ->
        let semantic = ref true in
        for m = 0 to 15 do
          if Cube.eval a m && not (Cube.eval b m) then semantic := false
        done;
        Bool.equal (Cube.implies a b) !semantic
      | None, _ | _, None -> QCheck2.assume_fail ())

(* --- Sop ---------------------------------------------------------------- *)

let test_sop_absorb () =
  let ab = Cube.of_literals [ (0, true); (1, true) ] in
  let a = Cube.of_literals [ (0, true) ] in
  let abc = Cube.of_literals [ (0, true); (1, true); (2, true) ] in
  let f = Sop.of_cubes 3 [ ab; a; abc ] in
  let g = Sop.absorb f in
  Alcotest.(check int) "only a survives" 1 (Sop.product_count g);
  Alcotest.(check string) "a" "a" (Sop.to_string ~names:Sop.alpha_names g)

let test_sop_constants () =
  Alcotest.(check string) "zero" "0" (Sop.to_string ~names:Sop.alpha_names (Sop.zero 2));
  Alcotest.(check string) "one" "1" (Sop.to_string ~names:Sop.alpha_names (Sop.one 2));
  Alcotest.(check bool) "one evals true" true (Sop.eval (Sop.one 2) 0)

let test_sop_counts () =
  let f = Sop.of_cubes 3 [ Cube.of_literals [ (0, true); (1, false) ]; Cube.of_literals [ (2, true) ] ] in
  Alcotest.(check int) "products" 2 (Sop.product_count f);
  Alcotest.(check int) "literals" 3 (Sop.literal_count f)

let random_sop_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 6) (cube_gen 4) >|= fun cubes ->
  Sop.of_cubes 4 (List.filter_map Fun.id cubes)

let prop_absorb_preserves_semantics =
  QCheck2.Test.make ~name:"Sop.absorb preserves the function" ~count:300 random_sop_gen (fun f ->
      Sop.equal_semantically f (Sop.absorb f))

let prop_disjunction_semantics =
  QCheck2.Test.make ~name:"Sop.disjunction = pointwise or" ~count:200
    QCheck2.Gen.(pair random_sop_gen random_sop_gen)
    (fun (a, b) ->
      let d = Sop.disjunction a b in
      let ok = ref true in
      for m = 0 to 15 do
        if not (Bool.equal (Sop.eval d m) (Sop.eval a m || Sop.eval b m)) then ok := false
      done;
      !ok)

(* --- Truthtable --------------------------------------------------------- *)

let test_tt_xor_majority () =
  let x3 = Tt.xor_n 3 in
  Alcotest.(check int) "xor3 ones" 4 (Tt.count_ones x3);
  Alcotest.(check bool) "xor3(1,1,1)" true (Tt.eval x3 0b111);
  Alcotest.(check bool) "xor3(1,1,0)" false (Tt.eval x3 0b011);
  let m3 = Tt.majority_n 3 in
  Alcotest.(check int) "maj3 ones" 4 (Tt.count_ones m3);
  Alcotest.(check bool) "maj3(1,1,0)" true (Tt.eval m3 0b011);
  Alcotest.check_raises "majority even" (Invalid_argument "Truthtable.majority_n: even input count")
    (fun () -> ignore (Tt.majority_n 4))

let test_tt_self_dual () =
  Alcotest.(check bool) "xor3 self-dual" true (Tt.is_self_dual (Tt.xor_n 3));
  Alcotest.(check bool) "maj3 self-dual" true (Tt.is_self_dual (Tt.majority_n 3));
  Alcotest.(check bool) "and2 not self-dual" false
    (Tt.is_self_dual (Tt.create 2 (fun m -> m = 3)))

let test_tt_minterms () =
  let t = Tt.of_minterms 3 [ 1; 5; 2 ] in
  Alcotest.(check (list int)) "minterms sorted" [ 1; 2; 5 ] (Tt.minterms t)

let tt_gen nvars =
  QCheck2.Gen.(int_bound ((1 lsl (1 lsl nvars)) - 1) >|= fun bits ->
               Tt.create nvars (fun m -> bits land (1 lsl m) <> 0))

let prop_dual_involution =
  QCheck2.Test.make ~name:"dual (dual f) = f" ~count:300 (tt_gen 4) (fun t ->
      Tt.equal (Tt.dual (Tt.dual t)) t)

let prop_complement_involution =
  QCheck2.Test.make ~name:"complement involution" ~count:200 (tt_gen 4) (fun t ->
      Tt.equal (Tt.complement (Tt.complement t)) t)

(* --- Qm ----------------------------------------------------------------- *)

let test_qm_known () =
  (* f = a b + a b' = a *)
  let t = Tt.of_minterms 2 [ 1; 3 ] in
  let f = Qm.cover t in
  Alcotest.(check int) "single product" 1 (Sop.product_count f);
  Alcotest.(check string) "a" "a" (Sop.to_string ~names:Sop.alpha_names f)

let test_qm_xor () =
  (* XOR needs both minterms; nothing merges *)
  let t = Tt.of_minterms 2 [ 1; 2 ] in
  let f = Qm.cover t in
  Alcotest.(check int) "two products" 2 (Sop.product_count f);
  Alcotest.(check int) "four literals" 4 (Sop.literal_count f)

let test_qm_classic () =
  (* classic example: minterms 0,1,2,5,6,7 of 3 vars minimizes to 3 pairs *)
  let t = Tt.of_minterms 3 [ 0; 1; 2; 5; 6; 7 ] in
  let f = Qm.cover t in
  Alcotest.(check bool) "cover exact" true (Tt.equal (Tt.of_sop f) t);
  Alcotest.(check int) "three products" 3 (Sop.product_count f)

let prop_qm_cover_exact =
  QCheck2.Test.make ~name:"Qm.cover computes the same function" ~count:300 (tt_gen 4) (fun t ->
      Tt.equal (Tt.of_sop (Qm.cover t)) t)

let prop_qm_primes_are_implicants =
  QCheck2.Test.make ~name:"Qm prime implicants imply f" ~count:200 (tt_gen 3) (fun t ->
      List.for_all
        (fun imp ->
          let c = Qm.cube_of_implicant 3 imp in
          let ok = ref true in
          for m = 0 to 7 do
            if Cube.eval c m && not (Tt.eval t m) then ok := false
          done;
          !ok)
        (Qm.prime_implicants t))

(* --- Expr --------------------------------------------------------------- *)

let test_expr_parse_eval () =
  let ast, names = Expr.parse "a & b | !c" in
  Alcotest.(check int) "3 vars" 3 (Array.length names);
  Alcotest.(check bool) "(1,1,1)" true (Expr.eval ast 0b011);
  Alcotest.(check bool) "(0,0,1)" false (Expr.eval ast 0b100);
  Alcotest.(check bool) "(0,0,0)" true (Expr.eval ast 0b000)

let test_expr_juxtaposition () =
  let ast, names = Expr.parse "a b' + c" in
  Alcotest.(check int) "3 vars" 3 (Array.length names);
  Alcotest.(check bool) "a=1 b=0" true (Expr.eval ast 0b001);
  Alcotest.(check bool) "a=1 b=1 c=0" false (Expr.eval ast 0b011)

let test_expr_xor_precedence () =
  (* ^ binds tighter than | and looser than & *)
  let ast, _ = Expr.parse "a ^ b & c" in
  (* = a ^ (b & c) *)
  Alcotest.(check bool) "1^(0&1)=1" true (Expr.eval ast 0b101);
  Alcotest.(check bool) "1^(1&1)=0" false (Expr.eval ast 0b111)

let test_expr_double_prime () =
  let ast, _ = Expr.parse "a''" in
  Alcotest.(check bool) "a'' = a" true (Expr.eval ast 0b1)

let test_expr_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (match Expr.parse s with exception Expr.Parse_error _ -> true | _ -> false))
    [ "a +"; "(a"; "a b )"; "&"; "'a"; "a $ b" ]

let test_expr_sop_of_string () =
  let sop, names = Expr.sop_of_string "a b + a b' " in
  Alcotest.(check int) "minimized to a" 1 (Sop.product_count sop);
  Alcotest.(check string) "var name" "a" names.(0)

let test_expr_constants () =
  let ast, _ = Expr.parse "a & 0 | 1" in
  Alcotest.(check bool) "const" true (Expr.eval ast 0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "boolfn"
    [
      ( "cube",
        [
          Alcotest.test_case "literals" `Quick test_cube_literals;
          Alcotest.test_case "contradiction" `Quick test_cube_contradiction;
          Alcotest.test_case "eval" `Quick test_cube_eval;
          qc prop_cube_implies_semantic;
        ] );
      ( "sop",
        [
          Alcotest.test_case "absorb" `Quick test_sop_absorb;
          Alcotest.test_case "constants" `Quick test_sop_constants;
          Alcotest.test_case "counts" `Quick test_sop_counts;
          qc prop_absorb_preserves_semantics;
          qc prop_disjunction_semantics;
        ] );
      ( "truthtable",
        [
          Alcotest.test_case "xor and majority" `Quick test_tt_xor_majority;
          Alcotest.test_case "self-duality" `Quick test_tt_self_dual;
          Alcotest.test_case "minterms" `Quick test_tt_minterms;
          qc prop_dual_involution;
          qc prop_complement_involution;
        ] );
      ( "qm",
        [
          Alcotest.test_case "merges a b + a b'" `Quick test_qm_known;
          Alcotest.test_case "xor does not merge" `Quick test_qm_xor;
          Alcotest.test_case "classic 3-var example" `Quick test_qm_classic;
          qc prop_qm_cover_exact;
          qc prop_qm_primes_are_implicants;
        ] );
      ( "expr",
        [
          Alcotest.test_case "parse and eval" `Quick test_expr_parse_eval;
          Alcotest.test_case "juxtaposition AND" `Quick test_expr_juxtaposition;
          Alcotest.test_case "xor precedence" `Quick test_expr_xor_precedence;
          Alcotest.test_case "double prime" `Quick test_expr_double_prime;
          Alcotest.test_case "parse errors" `Quick test_expr_errors;
          Alcotest.test_case "sop_of_string" `Quick test_expr_sop_of_string;
          Alcotest.test_case "constants" `Quick test_expr_constants;
        ] );
    ]
