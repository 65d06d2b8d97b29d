(* Reference implementations that the tests check production code
   against. Library code never calls them, so they live with the tests. *)

module Tt = Lattice_boolfn.Truthtable
module Sop = Lattice_boolfn.Sop
module Matrix = Lattice_numerics.Matrix
module Lu = Lattice_numerics.Lu
module Sparse = Lattice_numerics.Sparse

(* the truth table of a sum of products, by evaluating every assignment *)
let tt_of_sop f = Tt.create (Sop.nvars f) (Sop.eval f)

(* the infinity norm of [a - b] *)
let max_abs_diff a b =
  if Array.length a <> Array.length b then invalid_arg "Oracle.max_abs_diff: length mismatch";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

(* one dense factor-and-solve *)
let solve_dense m b = Lu.solve (Lu.factor m) b

(* a sparse matrix whose pattern is the nonzeros of a square dense one *)
let sparse_of_matrix (dm : Matrix.t) =
  let n = dm.Matrix.rows in
  let b = Sparse.Builder.create n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if Matrix.get dm r c <> 0.0 then Sparse.Builder.add b r c
    done
  done;
  let m = Sparse.create (Sparse.Builder.compile b) in
  Sparse.iteri m (fun s r c _ -> m.Sparse.values.(s) <- Matrix.get dm r c);
  m

let sparse_to_matrix ~n (m : Sparse.t) =
  let dm = Matrix.create n n in
  Sparse.iteri m (fun _ r c v -> Matrix.set dm r c v);
  dm
