exception Singular of int

let pivot_floor = 1e-300 (* matches Lu.pivot_floor *)

type pattern = {
  n : int;
  col_ptr : int array; (* length n+1 *)
  row_ind : int array; (* length nnz; rows ascending within a column *)
  index : (int, int) Hashtbl.t; (* (col * n + row) -> slot *)
}

type t = { pattern : pattern; values : float array }

module Builder = struct
  type b = { bn : int; cells : (int, unit) Hashtbl.t }

  let create n =
    if n < 0 then invalid_arg "Sparse.Builder.create: negative dimension";
    { bn = n; cells = Hashtbl.create (Int.max 16 (4 * n)) }

  let add b r c =
    if r < 0 || r >= b.bn || c < 0 || c >= b.bn then
      invalid_arg (Printf.sprintf "Sparse.Builder.add: (%d, %d) out of range for n=%d" r c b.bn);
    Hashtbl.replace b.cells ((c * b.bn) + r) ()

  let compile b =
    let keys = Hashtbl.fold (fun k () acc -> k :: acc) b.cells [] in
    (* ascending (col * n + row) = column-major with rows ascending *)
    let keys = List.sort compare keys in
    let nnz = List.length keys in
    let col_ptr = Array.make (b.bn + 1) 0 in
    let row_ind = Array.make nnz 0 in
    let index = Hashtbl.create (Int.max 16 (2 * nnz)) in
    List.iteri
      (fun s k ->
        let c = k / b.bn and r = k mod b.bn in
        row_ind.(s) <- r;
        col_ptr.(c + 1) <- s + 1;
        Hashtbl.replace index k s)
      keys;
    (* columns without entries inherit the running offset *)
    for c = 1 to b.bn do
      if col_ptr.(c) < col_ptr.(c - 1) then col_ptr.(c) <- col_ptr.(c - 1)
    done;
    { n = b.bn; col_ptr; row_ind; index }
end

let dim p = p.n
let nnz p = Array.length p.row_ind

let slot p ~row ~col =
  match Hashtbl.find_opt p.index ((col * p.n) + row) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sparse.slot: (%d, %d) not in pattern" row col)

let mem p ~row ~col = Hashtbl.mem p.index ((col * p.n) + row)

let create pattern = { pattern; values = Array.make (nnz pattern) 0.0 }

let add m r c v =
  let s = slot m.pattern ~row:r ~col:c in
  m.values.(s) <- m.values.(s) +. v

let get m r c =
  match Hashtbl.find_opt m.pattern.index ((c * m.pattern.n) + r) with
  | Some s -> m.values.(s)
  | None -> 0.0

let iteri m f =
  let p = m.pattern in
  for c = 0 to p.n - 1 do
    for s = p.col_ptr.(c) to p.col_ptr.(c + 1) - 1 do
      f s p.row_ind.(s) c m.values.(s)
    done
  done

let of_matrix (dm : Matrix.t) =
  if dm.Matrix.rows <> dm.Matrix.cols then invalid_arg "Sparse.of_matrix: matrix not square";
  let n = dm.Matrix.rows in
  let b = Builder.create n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if Matrix.get dm r c <> 0.0 then Builder.add b r c
    done
  done;
  let m = create (Builder.compile b) in
  iteri m (fun s r c _ -> m.values.(s) <- Matrix.get dm r c);
  m

let to_matrix m =
  let n = m.pattern.n in
  let dm = Matrix.create n n in
  iteri m (fun _ r c v -> Matrix.set dm r c v);
  dm

(* --- pattern-reusing LU ------------------------------------------------ *)

type lu = {
  ln : int;
  perm : int array; (* perm.(k) = original row pivoting elimination step k *)
  pinv : int array; (* inverse: pinv.(orig_row) = elimination step *)
  (* CSC fill-in patterns in permuted row space. L is unit lower
     triangular with the diagonal implicit (entries strictly below);
     each U column stores its sub-diagonal rows ascending with the
     diagonal as the LAST entry, so a forward scan is elimination
     order. *)
  lp : int array;
  li : int array;
  lx : float array;
  up : int array;
  ui : int array;
  ux : float array;
  work : float array; (* dense column accumulator, length n *)
  for_pattern : pattern;
}

(* Observability probes: "factor"/"solve" spans tagged with the engine,
   folded into the factor.seconds / solve.seconds histograms shared with
   the dense {!Lu} path. Disabled cost: two atomic loads per call. *)
let refactor_probe =
  Lattice_obs.Probe.make ~cat:"numerics"
    ~args:[ ("engine", "sparse"); ("mode", "refactor") ]
    ~hist:"factor.seconds" "factor"

let factorize_probe =
  Lattice_obs.Probe.make ~cat:"numerics"
    ~args:[ ("engine", "sparse"); ("mode", "full") ]
    ~hist:"factor.seconds" "factor"

let solve_probe =
  Lattice_obs.Probe.make ~cat:"numerics" ~args:[ ("engine", "sparse") ] ~hist:"solve.seconds"
    "solve"

(* Numeric-only left-looking refactorization over the frozen pattern. *)
let refactor_numeric lu (m : t) =
  if not (lu.for_pattern == m.pattern) then
    invalid_arg "Sparse.refactor: matrix pattern differs from the analyzed one";
  let { col_ptr; row_ind; _ } = m.pattern in
  let work = lu.work in
  let lp = lu.lp and li = lu.li and lx = lu.lx in
  let up = lu.up and ui = lu.ui and ux = lu.ux in
  let pinv = lu.pinv in
  let values = m.values in
  for j = 0 to lu.ln - 1 do
    (* zero this column's fill pattern, then scatter A(:, j) into it *)
    for s = up.(j) to up.(j + 1) - 1 do
      work.(ui.(s)) <- 0.0
    done;
    for s = lp.(j) to lp.(j + 1) - 1 do
      work.(li.(s)) <- 0.0
    done;
    for s = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      work.(pinv.(row_ind.(s))) <- values.(s)
    done;
    (* eliminate with already-finished columns; ascending row order of
       the U pattern is a topological order for the triangular updates *)
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
    if Float.abs pivot < pivot_floor then raise (Singular j);
    ux.(up.(j + 1) - 1) <- pivot;
    for t = lp.(j) to lp.(j + 1) - 1 do
      lx.(t) <- work.(li.(t)) /. pivot
    done
  done

let refactor lu m =
  let t0 = Lattice_obs.Probe.enter refactor_probe in
  match refactor_numeric lu m with
  | () -> Lattice_obs.Probe.leave refactor_probe t0
  | exception e ->
    Lattice_obs.Probe.leave refactor_probe t0;
    raise e

let factorize_impl (m : t) =
  let p = m.pattern in
  let n = p.n in
  (* 1. choose the row permutation with a dense partially-pivoted
     elimination on the scattered values (once per topology; the sparse
     refactorization then freezes this order, KLU-style) *)
  let d = Array.make (n * n) 0.0 in
  iteri m (fun _ r c v -> d.((r * n) + c) <- v);
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
    if !best_mag < pivot_floor then raise (Singular k);
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
  (* 2. symbolic fill-in for the fixed order: the pattern of column j of
     L+U is the set of rows reachable from the structural entries of
     A(:, j) through the columns of L already computed (Gilbert-Peierls
     reachability; a plain transitive-closure mark suffices because the
     numeric pass consumes U rows in ascending = topological order) *)
  let lpat = Array.make n [||] in
  let upat = Array.make n [||] in
  let flag = Array.make n (-1) in
  let stack = Array.make n 0 in
  for j = 0 to n - 1 do
    let visited = ref [] in
    let top = ref 0 in
    let push i =
      if flag.(i) <> j then begin
        flag.(i) <- j;
        visited := i :: !visited;
        stack.(!top) <- i;
        incr top
      end
    in
    for s = p.col_ptr.(j) to p.col_ptr.(j + 1) - 1 do
      push pinv.(p.row_ind.(s))
    done;
    while !top > 0 do
      decr top;
      let i = stack.(!top) in
      if i < j then
        (* fill spreads through column i of L *)
        Array.iter push lpat.(i)
    done;
    let us = List.sort compare (List.filter (fun i -> i < j) !visited) in
    let ls = List.sort compare (List.filter (fun i -> i > j) !visited) in
    upat.(j) <- Array.of_list (us @ [ j ]);
    lpat.(j) <- Array.of_list ls
  done;
  let flatten pats =
    let ptr = Array.make (n + 1) 0 in
    for j = 0 to n - 1 do
      ptr.(j + 1) <- ptr.(j) + Array.length pats.(j)
    done;
    let ind = Array.make ptr.(n) 0 in
    for j = 0 to n - 1 do
      Array.blit pats.(j) 0 ind ptr.(j) (Array.length pats.(j))
    done;
    (ptr, ind)
  in
  let lp, li = flatten lpat in
  let up, ui = flatten upat in
  let lu =
    {
      ln = n;
      perm;
      pinv;
      lp;
      li;
      lx = Array.make (Array.length li) 0.0;
      up;
      ui;
      ux = Array.make (Array.length ui) 0.0;
      work = Array.make n 0.0;
      for_pattern = p;
    }
  in
  (* 3. numeric values through the same code path used on every reuse *)
  refactor_numeric lu m;
  lu

let full_factorizations = Lattice_obs.Metrics.counter "numerics.lu_full_factorizations"

let factorize m =
  Lattice_obs.Metrics.Counter.incr full_factorizations;
  let t0 = Lattice_obs.Probe.enter factorize_probe in
  match factorize_impl m with
  | lu ->
    Lattice_obs.Probe.leave factorize_probe t0;
    lu
  | exception e ->
    Lattice_obs.Probe.leave factorize_probe t0;
    raise e

let solve_in_place_impl lu b =
  let n = lu.ln in
  if Array.length b <> n then invalid_arg "Sparse.solve_in_place: size mismatch";
  let work = lu.work in
  for i = 0 to n - 1 do
    work.(i) <- b.(lu.perm.(i))
  done;
  (* forward substitution, unit lower triangle, column-oriented *)
  for j = 0 to n - 1 do
    let xj = work.(j) in
    if xj <> 0.0 then
      for t = lu.lp.(j) to lu.lp.(j + 1) - 1 do
        work.(lu.li.(t)) <- work.(lu.li.(t)) -. (lu.lx.(t) *. xj)
      done
  done;
  (* backward substitution, column-oriented; diagonal is last per column *)
  for j = n - 1 downto 0 do
    let xj = work.(j) /. lu.ux.(lu.up.(j + 1) - 1) in
    work.(j) <- xj;
    if xj <> 0.0 then
      for t = lu.up.(j) to lu.up.(j + 1) - 2 do
        work.(lu.ui.(t)) <- work.(lu.ui.(t)) -. (lu.ux.(t) *. xj)
      done
  done;
  Array.blit work 0 b 0 n

let solve_in_place lu b =
  let t0 = Lattice_obs.Probe.enter solve_probe in
  solve_in_place_impl lu b;
  Lattice_obs.Probe.leave solve_probe t0

let solve lu b =
  let out = Array.copy b in
  solve_in_place lu out;
  out

let lu_nnz lu = (Array.length lu.li, Array.length lu.ui)
