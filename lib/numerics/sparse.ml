exception Singular of int

let pivot_floor = 1e-300 (* matches Lu.pivot_floor *)

type pattern = {
  n : int;
  col_ptr : int array; (* length n+1 *)
  row_ind : int array; (* length nnz; rows ascending within a column *)
  index : (int, int) Hashtbl.t; (* (col * n + row) -> slot *)
  order : int array; (* order.(k) = the unknown eliminated at step k *)
}

type t = { pattern : pattern; values : float array }

(* Greedy minimum degree on the graph of A + A^T, diagonal ignored: each
   step eliminates the lowest-numbered unknown of least current degree
   and makes its remaining neighbours a clique. [adj.(v)] lists v's
   neighbours without repeats; one eliminated since the list was last
   rebuilt stays in it until the next rebuild, so [deg.(v)] counts the
   live ones. Eliminating an unknown with a single live neighbour only
   lowers that neighbour's degree, so a hub with many two-terminal
   spokes costs time linear in its spokes. *)
let min_degree n col_ptr row_ind =
  let len = Array.make n 0 in
  let off_diagonal f =
    for c = 0 to n - 1 do
      for s = col_ptr.(c) to col_ptr.(c + 1) - 1 do
        let r = row_ind.(s) in
        if r <> c then f r c
      done
    done
  in
  off_diagonal (fun r c ->
      len.(r) <- len.(r) + 1;
      len.(c) <- len.(c) + 1);
  let adj = Array.map (fun k -> Array.make k 0) len in
  Array.fill len 0 n 0;
  let push v w =
    adj.(v).(len.(v)) <- w;
    len.(v) <- len.(v) + 1
  in
  off_diagonal (fun r c ->
      push r c;
      push c r);
  (* A(r, c) and A(c, r) give the edge twice; [mark.(w) = stamp] says w
     is already in the list being built, and every list gets a new
     stamp *)
  let mark = Array.make n (-1) and stamp = ref (-1) in
  for v = 0 to n - 1 do
    incr stamp;
    let a = adj.(v) and m = ref 0 in
    for t = 0 to len.(v) - 1 do
      let w = a.(t) in
      if mark.(w) <> !stamp then begin
        mark.(w) <- !stamp;
        a.(!m) <- w;
        incr m
      end
    done;
    len.(v) <- !m
  done;
  let deg = Array.copy len and gone = Array.make n false in
  let nb = Array.make n 0 and order = Array.make n 0 and k = ref 0 in
  let take v =
    gone.(v) <- true;
    order.(!k) <- v;
    incr k
  in
  let eliminate v =
    take v;
    let a = adj.(v) and d = ref 0 in
    for t = 0 to len.(v) - 1 do
      let w = a.(t) in
      if not gone.(w) then begin
        nb.(!d) <- w;
        incr d
      end
    done;
    adj.(v) <- [||];
    let d = !d in
    if d = 1 then deg.(nb.(0)) <- deg.(nb.(0)) - 1
    else
      (* each neighbour u drops its eliminated entries and gains the
         neighbours of v it lacks *)
      for i = 0 to d - 1 do
        let u = nb.(i) in
        incr stamp;
        mark.(u) <- !stamp;
        let a = adj.(u) and m = ref 0 in
        for t = 0 to len.(u) - 1 do
          let w = a.(t) in
          if not gone.(w) then begin
            mark.(w) <- !stamp;
            a.(!m) <- w;
            incr m
          end
        done;
        let a =
          if !m + d <= Array.length a then a
          else begin
            let b = Array.make (Int.max (!m + d) (2 * Array.length a)) 0 in
            Array.blit a 0 b 0 !m;
            adj.(u) <- b;
            b
          end
        in
        for j = 0 to d - 1 do
          let w = nb.(j) in
          if mark.(w) <> !stamp then begin
            a.(!m) <- w;
            incr m
          end
        done;
        len.(u) <- !m;
        deg.(u) <- !m
      done
  in
  while !k < n do
    let v = ref (-1) and best = ref max_int in
    for u = 0 to n - 1 do
      if (not gone.(u)) && deg.(u) < !best then begin
        v := u;
        best := deg.(u)
      end
    done;
    if !best = n - !k - 1 then
      (* every unknown left neighbours all the others, and still does
         once the lowest-numbered one goes: the rule takes them in
         ascending order. Joining the shrinking clique instead would
         cost the cube of its size when the fill is dense. *)
      for u = 0 to n - 1 do
        if not gone.(u) then take u
      done
    else eliminate !v
  done;
  order

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
    { n = b.bn; col_ptr; row_ind; index; order = min_degree b.bn col_ptr row_ind }
end

let nnz p = Array.length p.row_ind

let slot p ~row ~col =
  match Hashtbl.find_opt p.index ((col * p.n) + row) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sparse.slot: (%d, %d) not in pattern" row col)

let create pattern = { pattern; values = Array.make (nnz pattern) 0.0 }

let add m r c v =
  let s = slot m.pattern ~row:r ~col:c in
  m.values.(s) <- m.values.(s) +. v

let iteri m f =
  let p = m.pattern in
  for c = 0 to p.n - 1 do
    for s = p.col_ptr.(c) to p.col_ptr.(c + 1) - 1 do
      f s p.row_ind.(s) c m.values.(s)
    done
  done

(* --- pattern-reusing LU ------------------------------------------------ *)

(* The LU factors B = A(order, order), A with rows and columns permuted
   by the pattern's elimination order. L and U share one value array,
   column by column in B's pivoted row space: column j holds its U rows
   above the diagonal ascending, then its pivot at slot [dg.(j)], then
   its L rows ascending (L's unit diagonal is implicit). [refactor] runs
   over this layout with [amap] below and a row-to-slot map of the
   column it eliminates, so the LU keeps O(nnz(A) + nnz(L+U) + n) words
   however many updates its elimination runs. *)
type lu = {
  ln : int;
  perm : int array; (* perm.(k) = the row of A pivoting elimination step k *)
  cp : int array; (* length n+1: column j is slots cp.(j) .. cp.(j+1)-1 *)
  dg : int array; (* the pivot slot of each column *)
  rows : int array; (* the permuted row of each slot *)
  x : float array; (* the L+U values *)
  amap : int array; (* A's slot s lands in slot amap.(s) *)
  pos : int array; (* refactor scratch: the slot of each row in the current column *)
  work : float array; (* dense solve accumulator, length n *)
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

(* Unchecked indexing for the two kernels below. Every index they use is
   a slot, row or column the analysis computed from the arrays it
   indexes, or a loop bound derived from their lengths; the kernels'
   inputs (the matrix's pattern and value count, the right-hand side's
   length) are checked on entry. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Numeric-only left-looking refactorization over the frozen pattern.
   Column j subtracts L(:, k) * U(k, j) for each of its U entries in
   ascending k, skipping exact zeros, then tests and divides by its
   pivot: the arithmetic of a left-looking kernel with a dense work
   column, in the same order, run in place on the merged storage. Each
   L(i, k) lands in the slot [pos] holds for row i: the fill closure
   puts every row of L(:, k) in column j. *)
let refactor_numeric lu (m : t) =
  if not (lu.for_pattern == m.pattern && Array.length m.values = Array.length lu.amap) then
    invalid_arg "Sparse.refactor: matrix pattern differs from the analyzed one";
  let x = lu.x and cp = lu.cp and dg = lu.dg and rows = lu.rows and pos = lu.pos in
  let amap = lu.amap and values = m.values in
  (* a column's elimination writes only its own slots, so scattering all
     of A up front gives each column the values a scatter just before
     its elimination would *)
  Array.fill x 0 (Array.length x) 0.0;
  for s = 0 to Array.length amap - 1 do
    x.!(amap.!(s)) <- values.!(s)
  done;
  for j = 0 to lu.ln - 1 do
    let c0 = cp.!(j) and d = dg.!(j) and c1 = cp.!(j + 1) in
    (* a column without U entries takes no updates *)
    if c0 < d then begin
      (* every target lies below the column's first U row *)
      for s = c0 + 1 to c1 - 1 do
        pos.!(rows.!(s)) <- s
      done;
      for s = c0 to d - 1 do
        let u = x.!(s) in
        if u <> 0.0 then begin
          let k = rows.!(s) in
          for t = dg.!(k) + 1 to cp.!(k + 1) - 1 do
            let dst = pos.!(rows.!(t)) in
            x.!(dst) <- x.!(dst) -. (x.!(t) *. u)
          done
        end
      done
    end;
    let pivot = x.!(d) in
    if Float.abs pivot < pivot_floor then raise (Singular lu.for_pattern.order.(j));
    for s = d + 1 to c1 - 1 do
      x.!(s) <- x.!(s) /. pivot
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
  let n = p.n and order = p.order in
  let rank = Array.make n 0 in
  Array.iteri (fun k v -> rank.(v) <- k) order;
  (* 1. choose the row permutation with a dense partially-pivoted
     elimination on the values of B (once per analysis; the sparse
     refactorization then freezes this order, KLU-style). Only the
     pivot choices are kept, so the multipliers left of column k are
     neither stored nor swapped, and a zero never divides: no later
     step reads them. *)
  let d = Array.make (n * n) 0.0 in
  iteri m (fun _ r c v -> d.((rank.(r) * n) + rank.(c)) <- v);
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
    if !best_mag < pivot_floor then raise (Singular order.(k));
    if !best <> k then begin
      let b = !best in
      for c = k to n - 1 do
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
      let e = d.((r * n) + k) in
      if e <> 0.0 then begin
        let f = e /. pivot in
        if f <> 0.0 then
          for c = k + 1 to n - 1 do
            d.((r * n) + c) <- d.((r * n) + c) -. (f *. d.((k * n) + c))
          done
      end
    done
  done;
  (* [step.(r)]: the elimination step that row r of A pivots; [perm]
     becomes the row of A pivoting each step *)
  let step = Array.make n 0 in
  Array.iteri
    (fun k r ->
      step.(order.(r)) <- k;
      perm.(k) <- order.(r))
    perm;
  (* 2. symbolic fill-in for the fixed order: the pattern of column j of
     L+U is j plus the set of rows reachable from the structural entries
     of B(:, j) through the columns of L already computed (Gilbert-Peierls
     reachability; a plain transitive-closure mark suffices because the
     numeric pass consumes U rows in ascending = topological order).
     [cols.(j)] holds column j's rows ascending, [above.(j)] of them U's. *)
  let cols = Array.make n [||] and above = Array.make n 0 in
  let flag = Array.make n (-1) and reach = Array.make n 0 in
  for j = 0 to n - 1 do
    let nreach = ref 0 in
    let mark i =
      if flag.(i) <> j then begin
        flag.(i) <- j;
        reach.(!nreach) <- i;
        incr nreach
      end
    in
    mark j;
    let c = order.(j) in
    for s = p.col_ptr.(c) to p.col_ptr.(c + 1) - 1 do
      mark step.(p.row_ind.(s))
    done;
    (* [reach] doubles as the worklist *)
    let h = ref 0 in
    while !h < !nreach do
      let i = reach.(!h) in
      incr h;
      if i < j then begin
        let c = cols.(i) in
        for t = above.(i) + 1 to Array.length c - 1 do
          mark c.(t)
        done
      end
    done;
    (* insertion sort: a column reaches few rows *)
    for a = 1 to !nreach - 1 do
      let v = reach.(a) in
      let b = ref (a - 1) in
      while !b >= 0 && reach.(!b) > v do
        reach.(!b + 1) <- reach.(!b);
        decr b
      done;
      reach.(!b + 1) <- v
    done;
    let c = Array.sub reach 0 !nreach in
    cols.(j) <- c;
    let a = ref 0 in
    while c.(!a) < j do
      incr a
    done;
    above.(j) <- !a
  done;
  (* 3. the merged layout and the map from A's slots into it *)
  let cp = Array.make (n + 1) 0 and dg = Array.make n 0 in
  for j = 0 to n - 1 do
    cp.(j + 1) <- cp.(j) + Array.length cols.(j);
    dg.(j) <- cp.(j) + above.(j)
  done;
  let rows = Array.make cp.(n) 0 and amap = Array.make (nnz p) 0 in
  let pos = flag in
  for j = 0 to n - 1 do
    Array.iteri
      (fun a i ->
        rows.(cp.(j) + a) <- i;
        pos.(i) <- cp.(j) + a)
      cols.(j);
    let c = order.(j) in
    for s = p.col_ptr.(c) to p.col_ptr.(c + 1) - 1 do
      amap.(s) <- pos.(step.(p.row_ind.(s)))
    done
  done;
  let lu =
    {
      ln = n;
      perm;
      cp;
      dg;
      rows;
      x = Array.make cp.(n) 0.0;
      amap;
      pos;
      work = Array.make n 0.0;
      for_pattern = p;
    }
  in
  (* 4. numeric values through the same code path used on every reuse *)
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

(* Forward then backward substitution on the merged storage, in the
   order of the column-oriented triangular solves: L's columns forward,
   then U's backward with each pivot divided out first. Unknown
   [order.(j)] is the solution's entry j. *)
let solve_in_place_impl lu b =
  let n = lu.ln in
  if Array.length b <> n then invalid_arg "Sparse.solve_in_place: size mismatch";
  let work = lu.work and perm = lu.perm and x = lu.x and order = lu.for_pattern.order in
  let cp = lu.cp and dg = lu.dg and rows = lu.rows in
  for i = 0 to n - 1 do
    work.!(i) <- b.!(perm.!(i))
  done;
  for j = 0 to n - 1 do
    let xj = work.!(j) in
    if xj <> 0.0 then
      for s = dg.!(j) + 1 to cp.!(j + 1) - 1 do
        let i = rows.!(s) in
        work.!(i) <- work.!(i) -. (x.!(s) *. xj)
      done
  done;
  for j = n - 1 downto 0 do
    let d = dg.!(j) in
    let xj = work.!(j) /. x.!(d) in
    work.!(j) <- xj;
    if xj <> 0.0 then
      for s = cp.!(j) to d - 1 do
        let i = rows.!(s) in
        work.!(i) <- work.!(i) -. (x.!(s) *. xj)
      done
  done;
  for j = 0 to n - 1 do
    b.!(order.!(j)) <- work.!(j)
  done

let solve_in_place lu b =
  let t0 = Lattice_obs.Probe.enter solve_probe in
  solve_in_place_impl lu b;
  Lattice_obs.Probe.leave solve_probe t0

let lu_nnz lu =
  let nu = ref 0 in
  for j = 0 to lu.ln - 1 do
    nu := !nu + (lu.dg.(j) - lu.cp.(j) + 1)
  done;
  (Array.length lu.x - !nu, !nu)
