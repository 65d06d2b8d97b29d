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

(* a matrix from a non-empty list of equal-length rows *)
let of_rows rows =
  let rows = Array.of_list rows in
  Matrix.init (Array.length rows) (Array.length rows.(0)) (fun r c -> rows.(r).(c))
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
  check_float "norm_inf" 4.0 (Vec.norm_inf [| 3.0; -4.0 |])

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

let test_matrix_mul () =
  let a = of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let b = of_rows [ [| 5.0; 6.0 |]; [| 7.0; 8.0 |] ] in
  let c = Matrix.mat_mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_transpose () =
  let a = of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
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
    let x = Oracle.solve_dense a b in
    Alcotest.(check bool)
      (Printf.sprintf "solve %dx%d" n n)
      true
      (Oracle.max_abs_diff x x_true < 1e-8)
  done

let test_lu_singular () =
  let a = of_rows [ [| 1.0; 2.0 |]; [| 2.0; 4.0 |] ] in
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
      let x = Oracle.solve_dense a b in
      Oracle.max_abs_diff (Matrix.mat_vec a x) b < 1e-7)

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

(* the solution of [A x = b] for a factored [A], leaving [b] as it is *)
let sparse_solve lu b =
  let x = Array.copy b in
  Sparse.solve_in_place lu x;
  x

let test_sparse_pattern () =
  let b = Sparse.Builder.create 3 in
  Sparse.Builder.add b 0 0;
  Sparse.Builder.add b 2 1;
  Sparse.Builder.add b 2 1;
  (* duplicate merges *)
  Sparse.Builder.add b 1 2;
  let pat = Sparse.Builder.compile b in
  Alcotest.(check int) "nnz (duplicates merged)" 3 (Sparse.nnz pat);
  Alcotest.(check bool) "slot of unreserved raises" true
    (match Sparse.slot pat ~row:1 ~col:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let m = Sparse.create pat in
  Sparse.add m 2 1 5.0;
  Sparse.add m 2 1 2.5;
  check_float "accumulates" 7.5 m.Sparse.values.(Sparse.slot pat ~row:2 ~col:1);
  (* every other reserved slot stays 0 *)
  Sparse.iteri m (fun _ r c v -> if (r, c) <> (2, 1) then check_float "untouched slot" 0.0 v)

let test_sparse_matches_lu () =
  let rng = Random.State.make [| 11 |] in
  for n = 1 to 15 do
    let a = random_sparse_matrix rng n in
    let b = Array.init n (fun i -> Random.State.float rng 10.0 -. 5.0 +. float_of_int i) in
    let x_dense = Oracle.solve_dense a b in
    let sp = Oracle.sparse_of_matrix a in
    let x_sparse = sparse_solve (Sparse.factorize sp) b in
    Alcotest.(check bool)
      (Printf.sprintf "sparse = dense at n=%d" n)
      true
      (Oracle.max_abs_diff x_sparse x_dense < 1e-9)
  done

let test_sparse_zero_diagonal () =
  (* MNA voltage-source rows have structural zeros on the diagonal: the
     factorization must pivot, not fall over *)
  let a = of_rows [ [| 0.0; 1.0 |]; [| 1.0; 1e-3 |] ] in
  let sp = Oracle.sparse_of_matrix a in
  let x = sparse_solve (Sparse.factorize sp) [| 2.0; 3.0 |] in
  let ax = Matrix.mat_vec a x in
  Alcotest.(check bool) "pivoted solve" true (Oracle.max_abs_diff ax [| 2.0; 3.0 |] < 1e-9)

let test_sparse_refactor () =
  let rng = Random.State.make [| 23 |] in
  let n = 12 in
  let a = random_sparse_matrix rng n in
  let sp = Oracle.sparse_of_matrix a in
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
    let ax = Matrix.mat_vec (Oracle.sparse_to_matrix ~n sp) x in
    Alcotest.(check bool)
      (Printf.sprintf "refactor pass %d" pass)
      true
      (Oracle.max_abs_diff ax b < 1e-8)
  done

let test_sparse_singular_parity () =
  let a = of_rows [ [| 1.0; 2.0 |]; [| 2.0; 4.0 |] ] in
  Alcotest.(check bool) "dense raises" true
    (match Lu.factor a with exception Lu.Singular _ -> true | _ -> false);
  Alcotest.(check bool) "sparse raises" true
    (match Sparse.factorize (Oracle.sparse_of_matrix a) with
    | exception Sparse.Singular _ -> true
    | _ -> false)

let test_sparse_lu_nnz () =
  let rng = Random.State.make [| 31 |] in
  let n = 10 in
  let a = random_sparse_matrix rng n in
  let sp = Oracle.sparse_of_matrix a in
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
      let x = sparse_solve (Sparse.factorize (Oracle.sparse_of_matrix a)) b in
      Oracle.max_abs_diff (Matrix.mat_vec a x) b < 1e-7)

(* --- the library LU against the left-looking oracle ---------------------- *)

module Ll = Oracle.Left_looking
module Sp = Lattice_spice

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* [Ok v], or the column at which [f] raised [Sparse.Singular] *)
let outcome f = match f () with v -> Ok v | exception Sparse.Singular c -> Error c

(* A random [n * n] matrix shaped like an MNA system: a sparse pattern
   with most diagonals present; voltage-source branches with a
   structurally zero diagonal and +-1 incidence entries; sometimes a
   column repeating another's pattern with exactly or nearly
   proportional values. Values include exact zeros, both signs, six
   decades each way, and magnitudes at the pivot floor. *)
let random_mna_like rng n =
  let value () =
    let sign = if Random.State.bool rng then 1.0 else -1.0 in
    match Random.State.int rng 100 with
    | 0 | 1 -> 0.0
    | 2 -> sign *. 1e-300 *. (0.5 +. Random.State.float rng 1.5)
    | k when k < 10 -> sign
    | _ -> sign *. (10.0 ** (Random.State.float rng 12.0 -. 6.0))
  in
  let cells = Hashtbl.create 64 in
  let add r c v = Hashtbl.replace cells (r, c) v in
  let branch = Array.init n (fun _ -> n > 1 && Random.State.int rng 6 = 0) in
  for c = 0 to n - 1 do
    if not branch.(c) then add c c (value ());
    for _ = 1 to Random.State.int rng 4 do
      let r = Random.State.int rng n in
      if r <> c then add r c (value ())
    done
  done;
  (* each branch is incident to a node of its own, as no two sources
     share a node pair in a solvable circuit *)
  let nodes = List.filter (fun i -> not branch.(i)) (List.init n Fun.id) in
  ignore
    (Array.fold_left
       (fun (c, free) br ->
         match free with
         | node :: rest when br ->
           let sign = if Random.State.bool rng then 1.0 else -1.0 in
           add node c sign;
           add c node sign;
           (c + 1, rest)
         | _ -> (c + 1, free))
       (0, nodes) branch);
  (if n > 1 && Random.State.int rng 3 = 0 then
     let c1 = Random.State.int rng n in
     let c2 = (c1 + 1 + Random.State.int rng (n - 1)) mod n in
     let scale = value () and eps = [| 0.0; 1e-15; 1e-9 |].(Random.State.int rng 3) in
     Hashtbl.filter_map_inplace (fun (_, c) v -> if c = c2 then Some 0.0 else Some v) cells;
     Hashtbl.iter
       (fun (r, c) v -> if c = c1 then add r c2 (v *. scale *. (1.0 +. eps)))
       (Hashtbl.copy cells));
  let b = Sparse.Builder.create n in
  Hashtbl.iter (fun (r, c) _ -> Sparse.Builder.add b r c) cells;
  let m = Sparse.create (Sparse.Builder.compile b) in
  Sparse.iteri m (fun s r c _ -> m.Sparse.values.(s) <- Hashtbl.find cells (r, c));
  m

(* right-hand sides: random, a unit vector, and one with exact zeros *)
let rhs_set rng n =
  [
    Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0);
    Array.init n (fun i -> if i = n / 2 then 1.0 else 0.0);
    Array.init n (fun i -> if i mod 3 = 0 then 0.0 else float_of_int (i - 7));
  ]

let solves_agree lu ref_lu bs =
  List.for_all
    (fun b ->
      let x = sparse_solve lu b and y = Array.copy b in
      Ll.solve_in_place ref_lu y;
      same_bits x y)
    bs

(* rescale, zero, flip or shrink some values in place, keeping the pattern *)
let perturb rng (m : Sparse.t) =
  Array.iteri
    (fun s v ->
      m.Sparse.values.(s) <-
        (match Random.State.int rng 200 with
        | 0 -> 0.0
        | 1 -> v *. 1e-300
        | k when k < 40 -> v *. (Random.State.float rng 4.0 -. 2.0)
        | k when k < 60 -> -.v
        | _ -> v))
    m.Sparse.values

type lu_paths = { mutable singular_first : int; mutable singular_refactor : int; mutable agreed : int }

(* [factorize] and four rounds of [refactor] after in-place value changes:
   the library and the oracle give the same solution bits, or raise
   [Singular] at the same column. Tallies the paths taken into [paths]. *)
let matches_oracle ?(paths = { singular_first = 0; singular_refactor = 0; agreed = 0 }) ~n ~seed
    () =
  let rng = Random.State.make [| seed; 0x1f |] in
  let m = random_mna_like rng n in
  let bs = rhs_set rng n in
  match (outcome (fun () -> Sparse.factorize m), outcome (fun () -> Ll.factorize ~n m)) with
  | Error c, Error c' ->
    paths.singular_first <- paths.singular_first + 1;
    c = c'
  | Ok lu, Ok ref_lu ->
    Sparse.lu_nnz lu = Ll.lu_nnz ref_lu
    && solves_agree lu ref_lu bs
    && List.for_all
         (fun _ ->
           perturb rng m;
           match (outcome (fun () -> Sparse.refactor lu m), outcome (fun () -> Ll.refactor ref_lu m)) with
           | Error c, Error c' ->
             paths.singular_refactor <- paths.singular_refactor + 1;
             c = c'
           | Ok (), Ok () ->
             paths.agreed <- paths.agreed + 1;
             solves_agree lu ref_lu bs
           | _ -> false)
         [ 1; 2; 3; 4 ]
  | _ -> false

let prop_sparse_matches_oracle =
  QCheck2.Test.make ~name:"Sparse = left-looking oracle, bit for bit" ~count:300
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, seed) -> matches_oracle ~n ~seed ())

(* the generator reaches every outcome the property compares *)
let test_sparse_oracle_paths () =
  let paths = { singular_first = 0; singular_refactor = 0; agreed = 0 } in
  for seed = 0 to 399 do
    let n = 1 + (seed mod 40) in
    if not (matches_oracle ~paths ~n ~seed ()) then
      Alcotest.failf "library LU and oracle disagree at n=%d seed=%d" n seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "singular analyses %d, singular refactors %d, agreeing refactors %d"
       paths.singular_first paths.singular_refactor paths.agreed)
    true
    (paths.singular_first > 0 && paths.singular_refactor > 0 && paths.agreed > 0)

(* Newton on [plan] from [x0] under its current linear tier, stepped as
   [Dcop.newton_into] steps it (per-node damping), for up to [iters]
   iterations. The library and the oracle factor each assembled matrix,
   the first fully and the rest through refactorization (a fresh
   analysis when that raises), and must give the same solution bits.
   Returns the number of matrices checked. *)
let replay_newton ~label netlist plan ~x0 ~iters =
  let n = Sp.Stamp_plan.n plan and nnodes = Sp.Netlist.num_nodes netlist in
  let damping = Sp.Dcop.default_options.Sp.Dcop.damping in
  let a = Sp.Stamp_plan.matrix plan in
  let lus = ref None in
  let factor () =
    match !lus with
    | None -> lus := Some (Sparse.factorize a, Ll.factorize ~n a)
    | Some (lu, ref_lu) -> (
      match (outcome (fun () -> Sparse.refactor lu a), outcome (fun () -> Ll.refactor ref_lu a)) with
      | Ok (), Ok () -> ()
      | Error c, Error c' when c = c' -> lus := Some (Sparse.factorize a, Ll.factorize ~n a)
      | _ -> Alcotest.failf "%s: refactorizations disagree" label)
  in
  let x = Array.copy x0 and checked = ref 0 and moved = ref infinity in
  while !checked < iters && !moved > 1e-12 do
    Sp.Stamp_plan.assemble plan ~x;
    factor ();
    let lu, ref_lu = Option.get !lus in
    let b = Sp.Stamp_plan.rhs plan in
    let x_new = sparse_solve lu b and y = Array.copy b in
    Ll.solve_in_place ref_lu y;
    if not (same_bits x_new y) then Alcotest.failf "%s: iteration %d solutions differ" label !checked;
    moved := 0.0;
    for i = 0 to n - 1 do
      let d = x_new.(i) -. x.(i) in
      let d = if i < nnodes && Float.abs d > damping then Float.copy_sign damping d else d in
      moved := Float.max !moved (Float.abs d);
      x.(i) <- x.(i) +. d
    done;
    incr checked
  done;
  !checked

let gmin_final = Sp.Dcop.default_options.Sp.Dcop.gmin_final

let test_sparse_oracle_replay_dc () =
  let netlist =
    (Sp.Lattice_circuit.build Lattice_synthesis.Library.maj3_2x3 ~stimulus:(fun v ->
         Sp.Source.Dc (if v = 0 then 1.2 else 0.0)))
      .Sp.Lattice_circuit.netlist
  in
  let plan = Sp.Stamp_plan.compile netlist in
  Sp.Stamp_plan.set_linear plan ~time:0.0 ~gmin:gmin_final ~gshunt:0.0 ~source_scale:1.0 ~caps:None;
  let n = Sp.Stamp_plan.n plan in
  let checked = replay_newton ~label:"maj3 2x3 DC" netlist plan ~x0:(Array.make n 0.0) ~iters:60 in
  Alcotest.(check bool) (Printf.sprintf "%d Newton matrices replayed" checked) true (checked >= 3)

(* one backward-Euler step of the Fig 11 transient across the first
   input edge, from the operating point before it *)
let test_sparse_oracle_replay_transient () =
  let bit_time = 100e-9 and h = 0.5e-9 in
  let netlist =
    (Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
       ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time))
      .Sp.Lattice_circuit.netlist
  in
  let plan = Sp.Stamp_plan.compile netlist in
  let x_op = Sp.Dcop.solve ~plan netlist in
  let caps =
    List.filter_map
      (function Sp.Netlist.Capacitor { n1; n2; farads; _ } -> Some (n1, n2, farads) | _ -> None)
      (Sp.Netlist.elements netlist)
    |> Array.of_list
  in
  let geq = Array.map (fun (_, _, c) -> c /. h) caps in
  let ieq =
    Array.mapi
      (fun k (n1, n2, _) -> -.(geq.(k) *. (Sp.Mna.voltage x_op n1 -. Sp.Mna.voltage x_op n2)))
      caps
  in
  Sp.Stamp_plan.set_linear plan ~time:(bit_time +. h) ~gmin:gmin_final ~gshunt:0.0
    ~source_scale:1.0 ~caps:(Some { Sp.Mna.geq; ieq });
  let checked = replay_newton ~label:"Fig 11 step" netlist plan ~x0:x_op ~iters:60 in
  Alcotest.(check bool) (Printf.sprintf "%d Newton matrices replayed" checked) true (checked >= 2)

(* the kernels index without bounds checks, so what they are handed is
   checked: a matrix of another pattern, one whose value array does not
   fit its pattern, a right-hand side of the wrong length *)
let test_sparse_kernels_reject_mismatch () =
  let rng = Random.State.make [| 53 |] in
  let m = Oracle.sparse_of_matrix (random_sparse_matrix rng 6) in
  let lu = Sparse.factorize m in
  let rejects what f =
    Alcotest.(check bool) what true (match f () with exception Invalid_argument _ -> true | () -> false)
  in
  rejects "other pattern" (fun () ->
      Sparse.refactor lu (Oracle.sparse_of_matrix (random_sparse_matrix rng 6)));
  rejects "short value array" (fun () ->
      Sparse.refactor lu { m with Sparse.values = Array.sub m.Sparse.values 0 1 });
  rejects "short right-hand side" (fun () -> Sparse.solve_in_place lu (Array.make 5 1.0))

(* An arrow matrix whose hub comes first. Natural order would eliminate
   the hub first and fill all of L+U; the minimum-degree order takes the
   spokes first and the hub last, so L+U stays within three entries per
   entry of A, and the bits match the oracle's. A full random
   block fills L+U under any order, so a refactorization runs about
   n^3/3 updates over n^2 stored entries: what the LU adds to its
   matrix's pattern must grow with its entries (a value and a row index
   each, and a slot for each entry of A, plus O(n)), not with its
   updates. *)
let test_sparse_hub_fill () =
  let n = 200 in
  let b = Sparse.Builder.create n in
  for i = 0 to n - 1 do
    Sparse.Builder.add b i i;
    Sparse.Builder.add b 0 i;
    Sparse.Builder.add b i 0
  done;
  let m = Sparse.create (Sparse.Builder.compile b) in
  Sparse.iteri m (fun s r c _ ->
      m.Sparse.values.(s) <-
        (if r = c then if r = 0 then float_of_int n else 2.0 +. (float_of_int r *. 1e-3) else -1.0));
  let lu = Sparse.factorize m in
  let l, u = Sparse.lu_nnz lu and a = Sparse.nnz m.Sparse.pattern in
  Alcotest.(check bool) (Printf.sprintf "arrow: L+U %d <= 3 nnz(A) = %d" (l + u) (3 * a)) true
    (l + u <= 3 * a);
  let ref_lu = Ll.factorize ~n m in
  let rng = Random.State.make [| 61 |] in
  Alcotest.(check bool) "solves match the oracle" true (solves_agree lu ref_lu (rhs_set rng n));
  (* a rescaling: [perturb]'s zeros on a spoke's diagonal would be zero
     pivots, as the spokes go first *)
  Array.iteri
    (fun s v -> m.Sparse.values.(s) <- v *. (0.5 +. Random.State.float rng 1.0))
    m.Sparse.values;
  Sparse.refactor lu m;
  Ll.refactor ref_lu m;
  Alcotest.(check bool) "refactored solves match the oracle" true
    (solves_agree lu ref_lu (rhs_set rng n));
  let b = Sparse.Builder.create n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      Sparse.Builder.add b r c
    done
  done;
  let m = Sparse.create (Sparse.Builder.compile b) in
  Array.iteri (fun s _ -> m.Sparse.values.(s) <- Random.State.float rng 2.0 -. 1.0) m.Sparse.values;
  let lu = Sparse.factorize m in
  let l, u = Sparse.lu_nnz lu in
  Alcotest.(check int) "full block: L+U is dense" (n * n) (l + u);
  let kept =
    Obj.reachable_words (Obj.repr lu) - Obj.reachable_words (Obj.repr m.Sparse.pattern)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the LU keeps %d words for %d entries" kept (l + u))
    true
    (kept < (3 * (l + u)) + (32 * n))

(* The elimination order is a permutation that the pattern alone fixes:
   the oracle's order (which the LU matches bit for bit above) is one,
   and the same entries reserved in reverse order give the same LU. *)
let prop_order_deterministic =
  QCheck2.Test.make ~name:"elimination order: a permutation fixed by the pattern" ~count:100
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 0x2e |] in
      let m = random_mna_like rng n in
      let cells = ref [] in
      Sparse.iteri m (fun _ r c v -> cells := (r, c, v) :: !cells);
      let b = Sparse.Builder.create n in
      List.iter (fun (r, c, _) -> Sparse.Builder.add b r c) !cells;
      let m' = Sparse.create (Sparse.Builder.compile b) in
      List.iter (fun (r, c, v) -> Sparse.add m' r c v) !cells;
      List.sort compare (Array.to_list (Oracle.min_degree ~n m)) = List.init n Fun.id
      &&
      match (outcome (fun () -> Sparse.factorize m), outcome (fun () -> Sparse.factorize m')) with
      | Ok lu, Ok lu' ->
        Sparse.lu_nnz lu = Sparse.lu_nnz lu'
        && List.for_all (fun b -> same_bits (sparse_solve lu b) (sparse_solve lu' b)) (rhs_set rng n)
      | Error c, Error c' -> c = c'
      | _ -> false)

(* On the lattices that the flows and the daemon simulate, the order's
   L+U is at most natural order's, on the matrix a DC solve factors
   first *)
let test_sparse_order_lattices () =
  let altun_riedel tt =
    (Lattice_synthesis.Altun_riedel.synthesize tt).Lattice_synthesis.Altun_riedel.grid
  in
  List.iter
    (fun (name, grid) ->
      let netlist =
        (Sp.Lattice_circuit.build grid ~stimulus:(fun _ -> Sp.Source.Dc 1.2))
          .Sp.Lattice_circuit.netlist
      in
      let plan = Sp.Stamp_plan.compile netlist in
      Sp.Stamp_plan.set_linear plan ~time:0.0 ~gmin:gmin_final ~gshunt:0.0 ~source_scale:1.0
        ~caps:None;
      let n = Sp.Stamp_plan.n plan in
      Sp.Stamp_plan.assemble plan ~x:(Array.make n 0.0);
      let a = Sp.Stamp_plan.matrix plan in
      let l, u = Sparse.lu_nnz (Sparse.factorize a) in
      let l', u' = Ll.lu_nnz (Ll.factorize ~order:(Array.init n Fun.id) ~n a) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: L+U %d, natural order %d" name (l + u) (l' + u'))
        true
        (l + u <= l' + u'))
    [
      ("maj3 2x3", Lattice_synthesis.Library.maj3_2x3);
      ("xor3 3x3", Lattice_synthesis.Library.xor3_3x3);
      ("Altun-Riedel maj3", altun_riedel (Lattice_boolfn.Truthtable.majority_n 3));
      ("Altun-Riedel xor3", altun_riedel Lattice_synthesis.Library.xor3);
    ]

(* [refactor] and [solve_in_place] allocate nothing at all once tracing
   and metrics are off *)
let test_sparse_kernels_allocation_free () =
  let rng = Random.State.make [| 47 |] in
  let m = Oracle.sparse_of_matrix (random_sparse_matrix rng 30) in
  let lu = Sparse.factorize m and b = Array.init 30 float_of_int in
  let trace_was = Lattice_obs.Trace.on () and metrics_was = Lattice_obs.Metrics.on () in
  Lattice_obs.Trace.set_enabled false;
  Lattice_obs.Metrics.set_enabled false;
  let words =
    Fun.protect
      ~finally:(fun () ->
        Lattice_obs.Trace.set_enabled trace_was;
        Lattice_obs.Metrics.set_enabled metrics_was)
      (fun () ->
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          Sparse.refactor lu m;
          Sparse.solve_in_place lu b
        done;
        Gc.minor_words () -. w0)
  in
  Alcotest.(check (float 0.0)) "minor words over 1000 refactor + solve calls" 0.0 words

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
  Alcotest.(check bool) "residual small" true (Oracle.max_abs_diff ax b < 1e-7)

let test_cg_matches_lu () =
  let rng = Random.State.make [| 7 |] in
  let n = 8 in
  let base = random_dd_matrix rng n in
  (* symmetrize while keeping diagonal dominance *)
  let a = Matrix.init n n (fun i j -> 0.5 *. (Matrix.get base i j +. Matrix.get base j i)) in
  let b = Array.init n (fun i -> float_of_int (i - 3)) in
  let x_lu = Oracle.solve_dense a b in
  let apply x out =
    let y = Matrix.mat_vec a x in
    Array.blit y 0 out 0 n
  in
  let r = Cg.solve ~apply ~b () in
  Alcotest.(check bool) "CG = LU" true (Oracle.max_abs_diff r.Cg.solution x_lu < 1e-6)

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
  Alcotest.(check bool) "status" true (r.Cg.status = Cg.Max_iterations)

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
  Alcotest.(check bool) "status" true (r.Cg.status = Cg.Stagnated);
  Alcotest.(check bool) "stopped well before the cap" true (r.Cg.iterations < 100_000);
  Alcotest.(check bool) "residual at the floor" true (r.Cg.residual_norm < 1e-10)

let test_cg_status_indefinite () =
  (* -I is symmetric negative definite: first curvature check must fire *)
  let apply x out = Array.iteri (fun i xi -> out.(i) <- -.xi) x in
  let r = Cg.solve ~apply ~b:[| 1.0; 2.0 |] () in
  Alcotest.(check bool) "status" true (r.Cg.status = Cg.Indefinite)

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
  check_float "variance" (2.0 /. 3.0) (Stats.stddev [| 1.0; 2.0; 3.0 |] ** 2.0);
  check_float "stddev of constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "rmse equal" 0.0 (Stats.rmse [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  check_float "rmse" (sqrt 0.5) (Stats.rmse [| 1.0; 2.0 |] [| 2.0; 2.0 |] *. sqrt 1.0)

let test_stats_regression () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let slope, intercept = Stats.linear_regression xs ys in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept;
  check_float "r2 perfect" 1.0 (Stats.r_squared ys ys)

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
          Alcotest.test_case "mat_mul" `Quick test_matrix_mul;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "add_to stamps" `Quick test_matrix_stamp;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve sizes 1..12" `Quick test_lu_solve;
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
          qc prop_sparse_matches_oracle;
          Alcotest.test_case "oracle: every outcome reached" `Quick test_sparse_oracle_paths;
          Alcotest.test_case "oracle: maj3 2x3 DC Newton replay" `Quick test_sparse_oracle_replay_dc;
          Alcotest.test_case "oracle: Fig 11 step Newton replay" `Quick
            test_sparse_oracle_replay_transient;
          Alcotest.test_case "hub-first fill: LU size follows L+U, oracle bits" `Quick
            test_sparse_hub_fill;
          Alcotest.test_case "refactor + solve allocate nothing" `Quick
            test_sparse_kernels_allocation_free;
          Alcotest.test_case "refactor + solve reject mismatched inputs" `Quick
            test_sparse_kernels_reject_mismatch;
          qc prop_order_deterministic;
          Alcotest.test_case "elimination order: L+U <= natural on lattices" `Quick
            test_sparse_order_lattices;
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
        ] );
      ( "interp",
        [
          Alcotest.test_case "lookup" `Quick test_interp_lookup;
          Alcotest.test_case "crossings" `Quick test_interp_crossings;
          Alcotest.test_case "bisect" `Quick test_interp_bisect;
          qc prop_lookup_exact_at_samples;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "LM line fit" `Quick test_lm_line_fit;
          Alcotest.test_case "LM exponential fit" `Quick test_lm_exponential_fit;
        ] );
    ]
