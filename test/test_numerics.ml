(* Unit and property tests for the numerical substrate. *)

module Vec = Lattice_numerics.Vec
module Matrix = Lattice_numerics.Matrix
module Lu = Lattice_numerics.Lu
module Sparse = Lattice_numerics.Sparse
module Cg = Lattice_numerics.Cg
module Mg = Lattice_numerics.Multigrid
module Stats = Lattice_numerics.Stats
module Interp = Lattice_numerics.Interp
module Optimize = Lattice_numerics.Optimize

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol a b = Alcotest.(check (float tol)) msg a b

(* --- Vec --------------------------------------------------------------- *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  check_float "dot empty" 0.0 (Vec.dot [||] [||])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 3.0; 4.0 |] y;
  check_float "axpy 0" 7.0 y.(0);
  check_float "axpy 1" 9.0 y.(1)

let test_vec_norms () =
  check_float "norm2" 5.0 (Vec.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Vec.norm_inf [| 3.0; -4.0 |]);
  check_float "max_abs_diff" 2.0 (Vec.max_abs_diff [| 1.0; 5.0 |] [| 3.0; 5.0 |])

let test_vec_linspace () =
  let v = Vec.linspace 0.0 5.0 11 in
  check_float "first" 0.0 v.(0);
  check_float "last" 5.0 v.(10);
  check_float "middle" 2.5 v.(5);
  Alcotest.check_raises "linspace n=1" (Invalid_argument "Vec.linspace: need at least 2 points")
    (fun () -> ignore (Vec.linspace 0.0 1.0 1))

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: length mismatch (2 vs 3)")
    (fun () -> ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 1 20) (float_range (-100.0) 100.0))

let prop_dot_symmetric =
  QCheck2.Test.make ~name:"Vec.dot is symmetric" ~count:200 float_array_gen (fun a ->
      let b = Array.map (fun x -> x +. 1.0) a in
      Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-6)

let prop_triangle_inequality =
  QCheck2.Test.make ~name:"Vec triangle inequality" ~count:200 float_array_gen (fun a ->
      let b = Array.map (fun x -> (2.0 *. x) -. 3.0) a in
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-6)

(* --- Matrix ------------------------------------------------------------ *)

let test_matrix_identity () =
  let i3 = Matrix.identity 3 in
  let v = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-12))) "I v = v" v (Matrix.mat_vec i3 v)

let test_matrix_mul () =
  let a = Matrix.of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let b = Matrix.of_rows [ [| 5.0; 6.0 |]; [| 7.0; 8.0 |] ] in
  let c = Matrix.mat_mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_transpose () =
  let a = Matrix.of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
  let t = Matrix.transpose a in
  check_float "t(0,1)" 4.0 (Matrix.get t 0 1);
  check_float "t(2,0)" 3.0 (Matrix.get t 2 0);
  let tt = Matrix.transpose t in
  Alcotest.(check bool) "involution" true (tt.Matrix.data = a.Matrix.data)

let test_matrix_stamp () =
  let m = Matrix.create 2 2 in
  Matrix.add_to m 0 0 1.5;
  Matrix.add_to m 0 0 2.5;
  check_float "accumulated" 4.0 (Matrix.get m 0 0)

(* --- Lu ----------------------------------------------------------------- *)

let random_dd_matrix rng n =
  (* random diagonally dominant matrix: always well conditioned *)
  let m = Matrix.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  for i = 0 to n - 1 do
    let rowsum = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then rowsum := !rowsum +. Float.abs (Matrix.get m i j)
    done;
    Matrix.set m i i (!rowsum +. 1.0)
  done;
  m

let test_lu_solve () =
  let rng = Random.State.make [| 42 |] in
  for n = 1 to 12 do
    let a = random_dd_matrix rng n in
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let b = Matrix.mat_vec a x_true in
    let x = Lu.solve_dense a b in
    Alcotest.(check bool)
      (Printf.sprintf "solve %dx%d" n n)
      true
      (Vec.max_abs_diff x x_true < 1e-8)
  done

let test_lu_determinant () =
  let a = Matrix.of_rows [ [| 2.0; 0.0 |]; [| 1.0; 3.0 |] ] in
  check_float "det" 6.0 (Lu.determinant (Lu.factor a));
  let perm = Matrix.of_rows [ [| 0.0; 1.0 |]; [| 1.0; 0.0 |] ] in
  check_float "det of swap" (-1.0) (Lu.determinant (Lu.factor perm))

let test_lu_singular () =
  let a = Matrix.of_rows [ [| 1.0; 2.0 |]; [| 2.0; 4.0 |] ] in
  Alcotest.(check bool) "raises Singular" true
    (match Lu.factor a with exception Lu.Singular _ -> true | _ -> false)

let test_lu_not_square () =
  let a = Matrix.create 2 3 in
  Alcotest.check_raises "not square" (Invalid_argument "Lu.factor: matrix not square") (fun () ->
      ignore (Lu.factor a))

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"Lu: A (A^-1 b) = b" ~count:100
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_dd_matrix rng n in
      let b = Array.init n (fun i -> Random.State.float rng 10.0 -. 5.0 +. float_of_int i) in
      let x = Lu.solve_dense a b in
      Vec.max_abs_diff (Matrix.mat_vec a x) b < 1e-7)

(* --- Sparse ------------------------------------------------------------- *)

(* a sparse-ish diagonally dominant matrix: diagonal + a few off-diagonals *)
let random_sparse_matrix rng n =
  let a = Matrix.create n n in
  for i = 0 to n - 1 do
    let fill = 1 + Random.State.int rng 3 in
    for _ = 1 to fill do
      let j = Random.State.int rng n in
      if j <> i then Matrix.add_to a i j (Random.State.float rng 4.0 -. 2.0)
    done
  done;
  for i = 0 to n - 1 do
    let rowsum = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then rowsum := !rowsum +. Float.abs (Matrix.get a i j)
    done;
    Matrix.set a i i (!rowsum +. 1.0 +. Random.State.float rng 1.0)
  done;
  a

let test_sparse_pattern () =
  let b = Sparse.Builder.create 3 in
  Sparse.Builder.add b 0 0;
  Sparse.Builder.add b 2 1;
  Sparse.Builder.add b 2 1;
  (* duplicate merges *)
  Sparse.Builder.add b 1 2;
  let pat = Sparse.Builder.compile b in
  Alcotest.(check int) "dim" 3 (Sparse.dim pat);
  Alcotest.(check int) "nnz (duplicates merged)" 3 (Sparse.nnz pat);
  Alcotest.(check bool) "mem reserved" true (Sparse.mem pat ~row:2 ~col:1);
  Alcotest.(check bool) "mem unreserved" false (Sparse.mem pat ~row:1 ~col:1);
  Alcotest.(check bool) "slot of unreserved raises" true
    (match Sparse.slot pat ~row:1 ~col:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let m = Sparse.create pat in
  Sparse.add m 2 1 5.0;
  Sparse.add m 2 1 2.5;
  check_float "accumulates" 7.5 (Sparse.get m 2 1);
  check_float "outside pattern reads 0" 0.0 (Sparse.get m 0 1);
  m.Sparse.values.(Sparse.slot pat ~row:2 ~col:1) <- 9.0;
  check_float "slot write visible" 9.0 (Sparse.get m 2 1)

let test_sparse_matches_lu () =
  let rng = Random.State.make [| 11 |] in
  for n = 1 to 15 do
    let a = random_sparse_matrix rng n in
    let b = Array.init n (fun i -> Random.State.float rng 10.0 -. 5.0 +. float_of_int i) in
    let x_dense = Lu.solve_dense a b in
    let sp = Sparse.of_matrix a in
    let x_sparse = Sparse.solve (Sparse.factorize sp) b in
    Alcotest.(check bool)
      (Printf.sprintf "sparse = dense at n=%d" n)
      true
      (Vec.max_abs_diff x_sparse x_dense < 1e-9)
  done

let test_sparse_zero_diagonal () =
  (* MNA voltage-source rows have structural zeros on the diagonal: the
     factorization must pivot, not fall over *)
  let a = Matrix.of_rows [ [| 0.0; 1.0 |]; [| 1.0; 1e-3 |] ] in
  let sp = Sparse.of_matrix a in
  let x = Sparse.solve (Sparse.factorize sp) [| 2.0; 3.0 |] in
  let ax = Matrix.mat_vec a x in
  Alcotest.(check bool) "pivoted solve" true (Vec.max_abs_diff ax [| 2.0; 3.0 |] < 1e-9)

let test_sparse_refactor () =
  let rng = Random.State.make [| 23 |] in
  let n = 12 in
  let a = random_sparse_matrix rng n in
  let sp = Sparse.of_matrix a in
  let lu = Sparse.factorize sp in
  let b = Array.init n (fun i -> float_of_int (i - 4)) in
  (* perturb every value in place, keeping the pattern, then refactor *)
  for pass = 1 to 3 do
    Sparse.iteri sp (fun slot r c v ->
        ignore r;
        ignore c;
        sp.Sparse.values.(slot) <- v *. (1.0 +. (0.05 *. float_of_int pass)));
    Sparse.refactor lu sp;
    let x = Array.copy b in
    Sparse.solve_in_place lu x;
    let ax = Matrix.mat_vec (Sparse.to_matrix sp) x in
    Alcotest.(check bool)
      (Printf.sprintf "refactor pass %d" pass)
      true
      (Vec.max_abs_diff ax b < 1e-8)
  done

let test_sparse_singular_parity () =
  let a = Matrix.of_rows [ [| 1.0; 2.0 |]; [| 2.0; 4.0 |] ] in
  Alcotest.(check bool) "dense raises" true
    (match Lu.factor a with exception Lu.Singular _ -> true | _ -> false);
  Alcotest.(check bool) "sparse raises" true
    (match Sparse.factorize (Sparse.of_matrix a) with
    | exception Sparse.Singular _ -> true
    | _ -> false)

let test_sparse_lu_nnz () =
  let rng = Random.State.make [| 31 |] in
  let n = 10 in
  let a = random_sparse_matrix rng n in
  let sp = Sparse.of_matrix a in
  let lu = Sparse.factorize sp in
  let lnnz, unnz = Sparse.lu_nnz lu in
  Alcotest.(check bool) "L nnz sane" true (lnnz >= 0 && lnnz <= n * n);
  Alcotest.(check bool) "U nnz covers diagonal" true (unnz >= n && unnz <= n * n)

let prop_sparse_roundtrip =
  QCheck2.Test.make ~name:"Sparse: A (A^-1 b) = b" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_sparse_matrix rng n in
      let b = Array.init n (fun i -> Random.State.float rng 10.0 -. 5.0 +. float_of_int i) in
      let x = Sparse.solve (Sparse.factorize (Sparse.of_matrix a)) b in
      Vec.max_abs_diff (Matrix.mat_vec a x) b < 1e-7)

(* --- Cg ----------------------------------------------------------------- *)

let test_cg_laplacian () =
  (* 1-D Poisson with unit load: tridiagonal [-1 2 -1] *)
  let n = 50 in
  let apply x out =
    for i = 0 to n - 1 do
      let left = if i > 0 then x.(i - 1) else 0.0 in
      let right = if i < n - 1 then x.(i + 1) else 0.0 in
      out.(i) <- (2.0 *. x.(i)) -. left -. right
    done
  in
  let b = Array.make n 1.0 in
  let r = Cg.solve ~apply ~b () in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  (* verify residual directly *)
  let ax = Array.make n 0.0 in
  apply r.Cg.solution ax;
  Alcotest.(check bool) "residual small" true (Vec.max_abs_diff ax b < 1e-7)

let test_cg_matches_lu () =
  let rng = Random.State.make [| 7 |] in
  let n = 8 in
  let base = random_dd_matrix rng n in
  (* symmetrize while keeping diagonal dominance *)
  let a = Matrix.init n n (fun i j -> 0.5 *. (Matrix.get base i j +. Matrix.get base j i)) in
  let b = Array.init n (fun i -> float_of_int (i - 3)) in
  let x_lu = Lu.solve_dense a b in
  let apply x out =
    let y = Matrix.mat_vec a x in
    Array.blit y 0 out 0 n
  in
  let r = Cg.solve ~apply ~b () in
  Alcotest.(check bool) "CG = LU" true (Vec.max_abs_diff r.Cg.solution x_lu < 1e-6)

let test_cg_status_max_iterations () =
  let n = 50 in
  let apply x out =
    for i = 0 to n - 1 do
      let left = if i > 0 then x.(i - 1) else 0.0 in
      let right = if i < n - 1 then x.(i + 1) else 0.0 in
      out.(i) <- (2.0 *. x.(i)) -. left -. right
    done
  in
  let r = Cg.solve ~apply ~b:(Array.make n 1.0) ~max_iter:2 () in
  Alcotest.(check bool) "not converged" false r.Cg.converged;
  Alcotest.(check string) "status" "max-iterations" (Cg.status_name r.Cg.status)

let test_cg_status_stagnated () =
  (* an unreachable tolerance: the residual hits the round-off floor and
     then fails to improve, which must be reported as Stagnated rather
     than burning the full iteration budget. A positive diagonal operator
     keeps [p' A p = sum d_i p_i^2] strictly positive even in floating
     point, so the indefinite guard cannot mask the stagnation exit. *)
  let n = 40 in
  let d = Array.init n (fun i -> 10.0 ** (-12.0 *. float_of_int i /. float_of_int (n - 1))) in
  let apply x out = Array.iteri (fun i xi -> out.(i) <- d.(i) *. xi) x in
  let b = Array.init n (fun i -> 1.0 +. sin (float_of_int i)) in
  let r = Cg.solve ~apply ~b ~tol:0.0 ~max_iter:1_000_000 () in
  Alcotest.(check bool) "not converged" false r.Cg.converged;
  Alcotest.(check string) "status" "stagnated" (Cg.status_name r.Cg.status);
  Alcotest.(check bool) "stopped well before the cap" true (r.Cg.iterations < 100_000);
  Alcotest.(check bool) "residual at the floor" true (r.Cg.residual_norm < 1e-10)

let test_cg_status_indefinite () =
  (* -I is symmetric negative definite: first curvature check must fire *)
  let apply x out = Array.iteri (fun i xi -> out.(i) <- -.xi) x in
  let r = Cg.solve ~apply ~b:[| 1.0; 2.0 |] () in
  Alcotest.(check string) "status" "indefinite" (Cg.status_name r.Cg.status)

(* --- Multigrid ---------------------------------------------------------- *)

(* 16x16 manufactured problem: coefficient jump of 1:100 down the middle,
   Dirichlet top and bottom rows with a linear ramp on top. *)
let mg_n = 16

let mg_sigma i = if i mod mg_n < mg_n / 2 then 1.0 else 100.0
let mg_face a b = 2.0 *. a *. b /. (a +. b)

let mg_problem () =
  let n = mg_n in
  let gx = Mg.vec (n * n) and gy = Mg.vec (n * n) in
  for i = 0 to (n * n) - 1 do
    let r = i / n and c = i mod n in
    if c < n - 1 then gx.{i} <- mg_face (mg_sigma i) (mg_sigma (i + 1));
    if r < n - 1 then gy.{i} <- mg_face (mg_sigma i) (mg_sigma (i + n))
  done;
  let fixed = Bytes.make (n * n) '\000' in
  for c = 0 to n - 1 do
    Bytes.set fixed c '\001';
    Bytes.set fixed (((n - 1) * n) + c) '\001'
  done;
  let dirichlet = Mg.vec (n * n) in
  for c = 0 to n - 1 do
    dirichlet.{c} <- 1.0 +. (0.05 *. float_of_int c)
  done;
  (gx, gy, fixed, dirichlet)

let mg_neighbors n gx gy i =
  let r = i / n and c = i mod n in
  List.concat
    [
      (if c > 0 then [ (i - 1, Bigarray.Array1.get gx (i - 1)) ] else []);
      (if c < n - 1 then [ (i + 1, Bigarray.Array1.get gx i) ] else []);
      (if r > 0 then [ (i - n, Bigarray.Array1.get gy (i - n)) ] else []);
      (if r < n - 1 then [ (i + n, Bigarray.Array1.get gy i) ] else []);
    ]

let test_mg_constant_field () =
  (* constant Dirichlet data is in the operator's null space: the full
     solve must reproduce the constant exactly (lifting + writeback) *)
  let n = mg_n in
  let gx, gy, fixed, _ = mg_problem () in
  let dirichlet = Mg.vec (n * n) in
  Bigarray.Array1.fill dirichlet 2.5;
  let t = Mg.create ~n ~gx ~gy ~fixed in
  let x, st = Mg.solve_dirichlet t ~dirichlet ~tol:1e-12 () in
  Alcotest.(check bool) "converged" true st.Mg.converged;
  for i = 0 to (n * n) - 1 do
    if Float.abs (x.{i} -. 2.5) > 1e-8 then
      Alcotest.failf "cell %d: %.3e away from constant" i (Float.abs (x.{i} -. 2.5))
  done

let test_mg_matches_cg () =
  let n = mg_n in
  let gx, gy, fixed, dirichlet = mg_problem () in
  let t = Mg.create ~n ~gx ~gy ~fixed in
  Alcotest.(check bool) "multiple levels" true (Mg.n_levels t > 1);
  let x_mg, st = Mg.solve_dirichlet t ~dirichlet ~tol:1e-12 () in
  Alcotest.(check bool) "mg converged" true st.Mg.converged;
  Alcotest.(check bool) "v-cycles counted" true (st.Mg.v_cycles >= st.Mg.iterations);
  Alcotest.(check bool) "sweeps counted" true (st.Mg.sweeps > 0);
  (* reference: plain CG on the Dirichlet-eliminated free system *)
  let is_fixed i = Bytes.get fixed i <> '\000' in
  let free =
    Array.of_seq (Seq.filter (fun i -> not (is_fixed i)) (Seq.init (n * n) Fun.id))
  in
  let index = Array.make (n * n) (-1) in
  Array.iteri (fun k i -> index.(i) <- k) free;
  let apply x out =
    Array.iteri
      (fun k i ->
        let acc = ref 0.0 in
        List.iter
          (fun (j, g) ->
            acc := !acc +. (g *. (x.(k) -. (if is_fixed j then 0.0 else x.(index.(j))))))
          (mg_neighbors n gx gy i);
        out.(k) <- !acc)
      free
  in
  let b = Array.make (Array.length free) 0.0 in
  Array.iteri
    (fun k i ->
      List.iter
        (fun (j, g) -> if is_fixed j then b.(k) <- b.(k) +. (g *. dirichlet.{j}))
        (mg_neighbors n gx gy i))
    free;
  let r = Cg.solve ~apply ~b ~tol:1e-12 () in
  Alcotest.(check bool) "cg converged" true r.Cg.converged;
  let max_diff = ref 0.0 in
  Array.iteri
    (fun k i -> max_diff := Float.max !max_diff (Float.abs (x_mg.{i} -. r.Cg.solution.(k))))
    free;
  Alcotest.(check bool)
    (Printf.sprintf "MG = CG to 1e-8 (got %.3e)" !max_diff)
    true (!max_diff < 1e-8);
  (* fixed cells carry the Dirichlet data verbatim *)
  for c = 0 to n - 1 do
    check_float "top row" dirichlet.{c} x_mg.{c}
  done

let test_mg_bad_sizes () =
  let gx = Mg.vec 16 and gy = Mg.vec 16 in
  Alcotest.(check bool) "n too small" true
    (match Mg.create ~n:2 ~gx:(Mg.vec 4) ~gy:(Mg.vec 4) ~fixed:(Bytes.make 4 '\000') with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "size mismatch" true
    (match Mg.create ~n:4 ~gx ~gy ~fixed:(Bytes.make 9 '\000') with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Stats -------------------------------------------------------------- *)

let test_stats_basics () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "variance" (2.0 /. 3.0) (Stats.variance [| 1.0; 2.0; 3.0 |]);
  check_float "stddev of constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "rmse equal" 0.0 (Stats.rmse [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  check_float "rmse" (sqrt 0.5) (Stats.rmse [| 1.0; 2.0 |] [| 2.0; 2.0 |] *. sqrt 1.0);
  check_float "max_abs_error" 3.0 (Stats.max_abs_error [| 0.0; 1.0 |] [| 3.0; 1.0 |])

let test_stats_regression () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let slope, intercept = Stats.linear_regression xs ys in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept;
  check_float "r2 perfect" 1.0 (Stats.r_squared ys ys)

let test_stats_relative_error () =
  check_float "rel" 0.1 (Stats.relative_error ~expected:10.0 11.0);
  check_float "rel at zero" 3.0 (Stats.relative_error ~expected:0.0 3.0)

(* --- Interp ------------------------------------------------------------- *)

let test_interp_lookup () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
  check_float "node" 10.0 (Interp.lookup xs ys 1.0);
  check_float "mid" 5.0 (Interp.lookup xs ys 0.5);
  check_float "clamp low" 0.0 (Interp.lookup xs ys (-1.0));
  check_float "clamp high" 0.0 (Interp.lookup xs ys 3.0)

let test_interp_crossings () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] and ys = [| 0.0; 2.0; 0.0; 2.0 |] in
  match Interp.crossings xs ys 1.0 with
  | [ a; b; c ] ->
    check_float "c1" 0.5 a;
    check_float "c2" 1.5 b;
    check_float "c3" 2.5 c
  | other -> Alcotest.failf "expected 3 crossings, got %d" (List.length other)

let test_interp_first_crossing_after () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] and ys = [| 0.0; 2.0; 0.0; 2.0 |] in
  (match Interp.first_crossing_after xs ys ~after:1.0 1.0 with
  | Some t -> check_float "after" 1.5 t
  | None -> Alcotest.fail "expected a crossing");
  Alcotest.(check bool) "none left" true
    (Interp.first_crossing_after xs ys ~after:3.0 1.0 = None)

let test_interp_bisect () =
  let root = Interp.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 ~tol:1e-10 in
  check_close "sqrt 2" 1e-8 (sqrt 2.0) root;
  Alcotest.check_raises "no bracket" (Invalid_argument "Interp.bisect: no sign change in bracket")
    (fun () -> ignore (Interp.bisect (fun x -> x +. 10.0) 0.0 1.0 ~tol:1e-3))

let prop_lookup_exact_at_samples =
  QCheck2.Test.make ~name:"Interp.lookup exact at sample points" ~count:100
    QCheck2.Gen.(array_size (int_range 2 20) (float_range (-5.0) 5.0))
    (fun ys ->
      let xs = Array.init (Array.length ys) float_of_int in
      Array.for_all
        (fun i -> Float.abs (Interp.lookup xs ys xs.(i) -. ys.(i)) < 1e-9)
        (Array.init (Array.length ys) Fun.id))

(* --- Optimize ----------------------------------------------------------- *)

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let r = Optimize.nelder_mead f [| 0.0; 0.0 |] ~max_iter:5000 () in
  Alcotest.(check bool) "converged" true r.Optimize.converged;
  check_close "x0" 1e-4 3.0 r.Optimize.x.(0);
  check_close "x1" 1e-4 (-1.0) r.Optimize.x.(1)

let test_nelder_mead_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r = Optimize.nelder_mead f [| -1.2; 1.0 |] ~max_iter:10000 ~tol:1e-16 () in
  check_close "rosenbrock x" 1e-3 1.0 r.Optimize.x.(0);
  check_close "rosenbrock y" 1e-3 1.0 r.Optimize.x.(1)

let test_lm_line_fit () =
  let xs = Array.init 20 (fun i -> float_of_int i /. 2.0) in
  let data = Array.map (fun x -> (3.0 *. x) -. 7.0) xs in
  let residuals p = Array.mapi (fun i x -> (p.(0) *. x) +. p.(1) -. data.(i)) xs in
  let r = Optimize.levenberg_marquardt ~residuals ~x0:[| 0.0; 0.0 |] () in
  check_close "slope" 1e-6 3.0 r.Optimize.params.(0);
  check_close "offset" 1e-6 (-7.0) r.Optimize.params.(1);
  Alcotest.(check bool) "rmse tiny" true (r.Optimize.rmse < 1e-8)

let test_lm_exponential_fit () =
  let xs = Array.init 30 (fun i -> float_of_int i /. 10.0) in
  let data = Array.map (fun x -> 2.5 *. exp (-1.3 *. x)) xs in
  let residuals p = Array.mapi (fun i x -> (p.(0) *. exp (p.(1) *. x)) -. data.(i)) xs in
  let r = Optimize.levenberg_marquardt ~residuals ~x0:[| 1.0; -0.5 |] () in
  check_close "amplitude" 1e-5 2.5 r.Optimize.params.(0);
  check_close "rate" 1e-5 (-1.3) r.Optimize.params.(1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "numerics"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "linspace" `Quick test_vec_linspace;
          Alcotest.test_case "length mismatch" `Quick test_vec_mismatch;
          qc prop_dot_symmetric;
          qc prop_triangle_inequality;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity" `Quick test_matrix_identity;
          Alcotest.test_case "mat_mul" `Quick test_matrix_mul;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "add_to stamps" `Quick test_matrix_stamp;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve sizes 1..12" `Quick test_lu_solve;
          Alcotest.test_case "determinant" `Quick test_lu_determinant;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "rejects non-square" `Quick test_lu_not_square;
          qc prop_lu_roundtrip;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "pattern build" `Quick test_sparse_pattern;
          Alcotest.test_case "matches dense LU" `Quick test_sparse_matches_lu;
          Alcotest.test_case "pivots past zero diagonal" `Quick test_sparse_zero_diagonal;
          Alcotest.test_case "refactor after value change" `Quick test_sparse_refactor;
          Alcotest.test_case "singular parity with Lu" `Quick test_sparse_singular_parity;
          Alcotest.test_case "fill-in stats" `Quick test_sparse_lu_nnz;
          qc prop_sparse_roundtrip;
        ] );
      ( "cg",
        [
          Alcotest.test_case "1-D laplacian" `Quick test_cg_laplacian;
          Alcotest.test_case "matches LU on SPD" `Quick test_cg_matches_lu;
          Alcotest.test_case "status: max-iterations" `Quick test_cg_status_max_iterations;
          Alcotest.test_case "status: stagnated" `Quick test_cg_status_stagnated;
          Alcotest.test_case "status: indefinite" `Quick test_cg_status_indefinite;
        ] );
      ( "multigrid",
        [
          Alcotest.test_case "constant Dirichlet field" `Quick test_mg_constant_field;
          Alcotest.test_case "matches CG on jump coefficients" `Quick test_mg_matches_cg;
          Alcotest.test_case "rejects bad sizes" `Quick test_mg_bad_sizes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "linear regression" `Quick test_stats_regression;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
        ] );
      ( "interp",
        [
          Alcotest.test_case "lookup" `Quick test_interp_lookup;
          Alcotest.test_case "crossings" `Quick test_interp_crossings;
          Alcotest.test_case "first_crossing_after" `Quick test_interp_first_crossing_after;
          Alcotest.test_case "bisect" `Quick test_interp_bisect;
          qc prop_lookup_exact_at_samples;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "nelder-mead quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "nelder-mead rosenbrock" `Quick test_nelder_mead_rosenbrock;
          Alcotest.test_case "LM line fit" `Quick test_lm_line_fit;
          Alcotest.test_case "LM exponential fit" `Quick test_lm_exponential_fit;
        ] );
    ]
