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

(* The elimination order [Sparse] gives a pattern: greedy minimum degree
   on the graph of A + A^T with the diagonal ignored, each step taking
   the lowest-numbered unknown of least degree among those left and
   joining its neighbours pairwise. Degrees are recounted from an
   adjacency matrix at every step. [order.(k)] is the unknown eliminated
   at step k. *)
let min_degree ~n (m : Sparse.t) =
  let g = Array.make_matrix n n false in
  Sparse.iteri m (fun _ r c _ ->
      if r <> c then begin
        g.(r).(c) <- true;
        g.(c).(r) <- true
      end);
  let left = Array.make n true in
  let neighbours v = List.filter (fun u -> left.(u) && g.(v).(u)) (List.init n Fun.id) in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let candidates = List.filter (fun v -> left.(v)) (List.init n Fun.id) in
    let degrees = List.map (fun v -> (List.length (neighbours v), v)) candidates in
    (* the least (degree, unknown) pair *)
    let _, v = List.fold_left min (List.hd degrees) degrees in
    order.(k) <- v;
    left.(v) <- false;
    let nbrs = neighbours v in
    List.iter (fun a -> List.iter (fun b -> if a <> b then g.(a).(b) <- true) nbrs) nbrs
  done;
  order

(* [solve_dense] with the unknowns eliminated in [order]: a dense
   partially-pivoted factor and solve of A(order, order) *)
let solve_dense_in_order ~order (a : Matrix.t) b =
  let n = Array.length order in
  let pa = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set pa i j (Matrix.get a order.(i) order.(j))
    done
  done;
  let y = solve_dense pa (Array.map (fun r -> b.(r)) order) in
  let x = Array.make n 0.0 in
  Array.iteri (fun k v -> x.(v) <- y.(k)) order;
  x

(* The left-looking sparse LU that [Sparse]'s in-place refactorization
   reproduces bit for bit. It factors B = A(order, order), by default in
   {!min_degree}'s order: a dense partially-pivoted elimination of B
   picks the row order, a symbolic pass finds the fill of L and U for
   it, and each refactorization eliminates one column of B at a time
   through a dense work column. It reads the matrix only through
   [Sparse.iteri], so it shares no code with the library's LU. *)
module Left_looking = struct
  let pivot_floor = 1e-300 (* matches Sparse and Lu *)

  type t = {
    n : int;
    order : int array;
    (* B(:, j)'s slots in [Sparse.iteri] order, and their rows of B *)
    a_slots : int array array;
    a_rows : int array array;
    perm : int array; (* perm.(k) = the row of B pivoting elimination step k *)
    pinv : int array;
    (* L strictly below the diagonal; each U column ends with its
       diagonal; rows ascending, in permuted row space *)
    lp : int array;
    li : int array;
    lx : float array;
    up : int array;
    ui : int array;
    ux : float array;
    work : float array;
  }

  let refactor lu (m : Sparse.t) =
    let { work; lp; li; lx; up; ui; ux; pinv; _ } = lu in
    let values = m.Sparse.values in
    for j = 0 to lu.n - 1 do
      (* zero this column's fill pattern, then scatter A(:, j) into it *)
      for s = up.(j) to up.(j + 1) - 1 do
        work.(ui.(s)) <- 0.0
      done;
      for s = lp.(j) to lp.(j + 1) - 1 do
        work.(li.(s)) <- 0.0
      done;
      Array.iteri (fun k s -> work.(pinv.(lu.a_rows.(j).(k))) <- values.(s)) lu.a_slots.(j);
      (* eliminate with the finished columns in ascending row order *)
      for s = up.(j) to up.(j + 1) - 2 do
        let k = ui.(s) in
        let ukj = work.(k) in
        ux.(s) <- ukj;
        if ukj <> 0.0 then
          for t = lp.(k) to lp.(k + 1) - 1 do
            work.(li.(t)) <- work.(li.(t)) -. (lx.(t) *. ukj)
          done
      done;
      let pivot = work.(j) in
      if Float.abs pivot < pivot_floor then raise (Sparse.Singular lu.order.(j));
      ux.(up.(j + 1) - 1) <- pivot;
      for t = lp.(j) to lp.(j + 1) - 1 do
        lx.(t) <- work.(li.(t)) /. pivot
      done
    done

  let factorize ?order ~n (m : Sparse.t) =
    let order = match order with Some o -> o | None -> min_degree ~n m in
    let rank = Array.make n 0 in
    Array.iteri (fun k v -> rank.(v) <- k) order;
    let slots = Array.make n [] and rows = Array.make n [] in
    Sparse.iteri m (fun s r c _ ->
        slots.(rank.(c)) <- s :: slots.(rank.(c));
        rows.(rank.(c)) <- rank.(r) :: rows.(rank.(c)));
    let a_slots = Array.map (fun l -> Array.of_list (List.rev l)) slots in
    let a_rows = Array.map (fun l -> Array.of_list (List.rev l)) rows in
    (* 1. the row order from a dense partially-pivoted elimination of B *)
    let d = Array.make (n * n) 0.0 in
    Sparse.iteri m (fun _ r c v -> d.((rank.(r) * n) + rank.(c)) <- v);
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let best = ref k in
      let best_mag = ref (Float.abs d.((k * n) + k)) in
      for r = k + 1 to n - 1 do
        let mag = Float.abs d.((r * n) + k) in
        if mag > !best_mag then begin
          best := r;
          best_mag := mag
        end
      done;
      if !best_mag < pivot_floor then raise (Sparse.Singular order.(k));
      if !best <> k then begin
        let b = !best in
        for c = 0 to n - 1 do
          let tmp = d.((k * n) + c) in
          d.((k * n) + c) <- d.((b * n) + c);
          d.((b * n) + c) <- tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(b);
        perm.(b) <- tmp
      end;
      let pivot = d.((k * n) + k) in
      for r = k + 1 to n - 1 do
        let f = d.((r * n) + k) /. pivot in
        d.((r * n) + k) <- f;
        if f <> 0.0 then
          for c = k + 1 to n - 1 do
            d.((r * n) + c) <- d.((r * n) + c) -. (f *. d.((k * n) + c))
          done
      done
    done;
    let pinv = Array.make n 0 in
    Array.iteri (fun k orig -> pinv.(orig) <- k) perm;
    (* 2. column j's fill: the rows reachable from A(:, j) through the L
       columns already computed *)
    let lpat = Array.make n [||] and upat = Array.make n [||] in
    let flag = Array.make n (-1) in
    for j = 0 to n - 1 do
      let visited = ref [] and stack = ref [] in
      let push i =
        if flag.(i) <> j then begin
          flag.(i) <- j;
          visited := i :: !visited;
          stack := i :: !stack
        end
      in
      Array.iter (fun r -> push pinv.(r)) a_rows.(j);
      while !stack <> [] do
        let i = List.hd !stack in
        stack := List.tl !stack;
        if i < j then Array.iter push lpat.(i)
      done;
      let us = List.sort compare (List.filter (fun i -> i < j) !visited) in
      let ls = List.sort compare (List.filter (fun i -> i > j) !visited) in
      upat.(j) <- Array.of_list (us @ [ j ]);
      lpat.(j) <- Array.of_list ls
    done;
    let flatten pats =
      let ptr = Array.make (n + 1) 0 in
      Array.iteri (fun j p -> ptr.(j + 1) <- ptr.(j) + Array.length p) pats;
      (ptr, Array.concat (Array.to_list pats))
    in
    let lp, li = flatten lpat and up, ui = flatten upat in
    let lu =
      {
        n;
        order;
        a_slots;
        a_rows;
        perm;
        pinv;
        lp;
        li;
        lx = Array.make (Array.length li) 0.0;
        up;
        ui;
        ux = Array.make (Array.length ui) 0.0;
        work = Array.make n 0.0;
      }
    in
    (* 3. the values through the refactorization *)
    refactor lu m;
    lu

  let solve_in_place lu b =
    let { n; order; work; lp; li; lx; up; ui; ux; perm; _ } = lu in
    for i = 0 to n - 1 do
      work.(i) <- b.(order.(perm.(i)))
    done;
    (* forward substitution, unit lower triangle, column-oriented *)
    for j = 0 to n - 1 do
      let xj = work.(j) in
      if xj <> 0.0 then
        for t = lp.(j) to lp.(j + 1) - 1 do
          work.(li.(t)) <- work.(li.(t)) -. (lx.(t) *. xj)
        done
    done;
    (* backward substitution; each U column's diagonal is its last entry *)
    for j = n - 1 downto 0 do
      let xj = work.(j) /. ux.(up.(j + 1) - 1) in
      work.(j) <- xj;
      if xj <> 0.0 then
        for t = up.(j) to up.(j + 1) - 2 do
          work.(ui.(t)) <- work.(ui.(t)) -. (ux.(t) *. xj)
        done
    done;
    Array.iteri (fun k v -> b.(v) <- work.(k)) order

  let lu_nnz lu = (Array.length lu.li, Array.length lu.ui)
end

(* --- decks that stress the parser's size caps and the LU's fill ------- *)

(* [levels] subcircuits nested two instances deep over a leaf of two
   resistors: 2^(levels + 1) resistors. With [internal] each level adds
   a midpoint node per instance, so unknowns double with the resistors;
   without, every element sits between the same two nodes. The
   top-level X card is line [4 * levels + 7]. *)
let nested_deck ~internal levels =
  let mid = if internal then "m" else "b" in
  let b = Buffer.create 1024 in
  Buffer.add_string b "nested subcircuits\n";
  Printf.bprintf b ".subckt l0 a b\nr1 a %s 1k\nr2 %s b 1k\n.ends\n" mid mid;
  for k = 1 to levels do
    Printf.bprintf b ".subckt l%d a b\nx1 a %s l%d\nx2 %s b l%d\n.ends\n" k mid (k - 1) mid (k - 1)
  done;
  Printf.bprintf b "v1 in 0 dc 1\nx1 in 0 l%d\n.op\n.end\n" levels;
  Buffer.contents b

(* A hub node fed 1 mA, with 1k to ground and spokes of 100 + 1k ohm to
   ground, each through a midpoint of its own. Subcircuit s<k> holds 2^k
   spokes, and the deck instantiates it on the hub once for each k of
   [levels]: one unknown per spoke plus the hub. The hub is the first
   node; the minimum-degree order eliminates it last, so L+U keeps A's
   pattern, where natural order would eliminate it first and fill all of
   L+U (about n^3/3 updates per refactorization). *)
let hub_deck levels =
  let b = Buffer.create 512 in
  Buffer.add_string b "hub and spokes\n.subckt s0 h\nr1 h m 100\nr2 m 0 1k\n.ends\n";
  for k = 1 to List.fold_left max 0 levels do
    Printf.bprintf b ".subckt s%d h\nx1 h s%d\nx2 h s%d\n.ends\n" k (k - 1) (k - 1)
  done;
  Buffer.add_string b "i1 0 hub dc 1m\nrg hub 0 1k\n";
  List.iter (fun k -> Printf.bprintf b "x%d hub s%d\n" k k) levels;
  Buffer.add_string b ".op\n.print v(hub)\n.end\n";
  Buffer.contents b

(* [hub_deck]'s levels at the parser's cap: s0 .. s10 once each, 2,047
   spokes and 2,048 unknowns *)
let hub_at_cap = List.init 11 Fun.id

(* v(hub) of [hub_deck levels]: 1 mA into 1k in parallel with the spokes *)
let hub_volts levels =
  let spokes = List.fold_left (fun n k -> n + (1 lsl k)) 0 levels in
  1e-3 /. ((1.0 /. 1000.0) +. (float_of_int spokes /. 1100.0))
