(* Geometric multigrid for the cell-centred variable-coefficient operator
   div (sigma grad V) on an n x n grid.

   The operator is described by per-face conductances (gx between
   horizontally adjacent cells, gy between vertically adjacent cells) and
   a Dirichlet mask. All levels solve the homogeneous-Dirichlet
   *correction* equation: fixed cells hold 0 and are never written, so
   the smoother can read neighbour values branchlessly. The caller lifts
   Dirichlet boundary values into the right-hand side ([dirichlet_rhs])
   and adds them back after the solve ([solve_dirichlet] does both).

   V-cycle schedule: V(2,2) with red-black Gauss-Seidel smoothing
   (red/black pre-sweeps, black/red post-sweeps, so one cycle is a
   symmetric operator up to the grid-transfer pair) and aggregation
   (piecewise-constant) transfers over 2x2 blocks: restriction sums the
   four fine residuals, prolongation injects the coarse correction into
   the children — an exact transpose pair that never interpolates across
   a coefficient jump. Coarse face conductances are the half-sum of the
   two fine faces crossing the coarse interface (the resistor-network
   coarsening: doubled cross-section over doubled path length), which
   keeps the coarse operator consistent with the restricted smooth-error
   equation. Grids halve while the size is even and >= 8; the coarsest
   level is relaxed with a fixed number of sweeps.

   Because the cycle is only symmetric up to the Dirichlet masking in the
   transfers, the PCG driver uses the *flexible* (Polak-Ribiere) beta, so
   one V-cycle per iteration is a safe preconditioner even where the
   cycle deviates from an exact SPD operator. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let vcycle_probe =
  Lattice_obs.Probe.make ~cat:"numerics" ~hist:"mg.vcycle.seconds" "mg.vcycle"

let sweeps_total = Lattice_obs.Metrics.counter "mg.smoother_sweeps_total"
let vcycles_total = Lattice_obs.Metrics.counter "mg.v_cycles_total"

let vec n : vec =
  let v = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill v 0.0;
  v

let g = Bigarray.Array1.unsafe_get
let s = Bigarray.Array1.unsafe_set

type level = {
  n : int;
  gx : vec;  (* face (r,c)-(r,c+1) at r*n+c; 0 when c = n-1 *)
  gy : vec;  (* face (r,c)-(r+1,c) at r*n+c; 0 when r = n-1 *)
  diag : vec;  (* sum of the cell's face conductances; 0 marks "skip" *)
  fixed : Bytes.t;  (* '\001' = Dirichlet cell *)
  x : vec;  (* correction iterate on this level *)
  b : vec;  (* right-hand side on this level *)
  r : vec;  (* residual scratch *)
}

type t = {
  levels : level array;
  mutable v_cycles : int;
  mutable sweep_count : int;
}

type stats = {
  iterations : int;
  v_cycles : int;
  sweeps : int;
  residual_norm : float;
  converged : bool;
}

let coarsest_min = 8
let pre_sweeps = 2
let post_sweeps = 2
let coarse_sweeps = 60

let is_fixed l i = Bytes.unsafe_get l.fixed i <> '\000'

let make_level n gx gy fixed =
  let nn = n * n in
  let diag = vec nn in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let i = (r * n) + c in
      let d =
        (if c < n - 1 then g gx i else 0.0)
        +. (if c > 0 then g gx (i - 1) else 0.0)
        +. (if r < n - 1 then g gy i else 0.0)
        +. (if r > 0 then g gy (i - n) else 0.0)
      in
      s diag i d;
      (* a free cell with no coupling has no equation: freeze it *)
      if d <= 0.0 then Bytes.set fixed i '\001'
    done
  done;
  { n; gx; gy; diag; fixed; x = vec nn; b = vec nn; r = vec nn }

let coarsen (l : level) =
  let n = l.n in
  let nc = n / 2 in
  let gxc = vec (nc * nc) and gyc = vec (nc * nc) in
  let fixedc = Bytes.make (nc * nc) '\000' in
  for rr = 0 to nc - 1 do
    for cc = 0 to nc - 1 do
      let ic = (rr * nc) + cc in
      let i00 = (2 * rr * n) + (2 * cc) in
      if cc < nc - 1 then
        (* the two fine faces crossing the coarse vertical interface *)
        s gxc ic (0.5 *. (g l.gx (i00 + 1) +. g l.gx (i00 + n + 1)));
      if rr < nc - 1 then
        s gyc ic (0.5 *. (g l.gy (i00 + n) +. g l.gy (i00 + n + 1)));
      if
        is_fixed l i00 || is_fixed l (i00 + 1) || is_fixed l (i00 + n)
        || is_fixed l (i00 + n + 1)
      then Bytes.set fixedc ic '\001'
    done
  done;
  make_level nc gxc gyc fixedc

let create ~n ~gx ~gy ~fixed =
  if n < 3 then invalid_arg "Multigrid.create: grid too coarse";
  if Bigarray.Array1.dim gx <> n * n || Bigarray.Array1.dim gy <> n * n then
    invalid_arg "Multigrid.create: coefficient arrays must have n*n entries";
  if Bytes.length fixed <> n * n then
    invalid_arg "Multigrid.create: fixed mask must have n*n entries";
  let copy_vec (v : vec) =
    let c = vec (Bigarray.Array1.dim v) in
    Bigarray.Array1.blit v c;
    c
  in
  let finest = make_level n (copy_vec gx) (copy_vec gy) (Bytes.copy fixed) in
  let rec build acc l =
    if l.n mod 2 = 0 && l.n >= coarsest_min then begin
      let c = coarsen l in
      build (c :: acc) c
    end
    else List.rev acc
  in
  { levels = Array.of_list (build [ finest ] finest); v_cycles = 0; sweep_count = 0 }

let n_levels t = Array.length t.levels
let finest t = t.levels.(0)

(* one Gauss-Seidel half-sweep over the cells of one color (0 = red) *)
let half_sweep (l : level) color =
  let n = l.n in
  let x = l.x and b = l.b and gx = l.gx and gy = l.gy and diag = l.diag in
  for r = 0 to n - 1 do
    let row = r * n in
    let c0 = (color + r) land 1 in
    let c = ref c0 in
    while !c < n do
      let i = row + !c in
      let d = g diag i in
      if d > 0.0 && not (is_fixed l i) then begin
        let acc = ref (g b i) in
        if !c > 0 then acc := !acc +. (g gx (i - 1) *. g x (i - 1));
        if !c < n - 1 then acc := !acc +. (g gx i *. g x (i + 1));
        if r > 0 then acc := !acc +. (g gy (i - n) *. g x (i - n));
        if r < n - 1 then acc := !acc +. (g gy i *. g x (i + n));
        s x i (!acc /. d)
      end;
      c := !c + 2
    done
  done

let smooth t l ~reversed count =
  for _ = 1 to count do
    if reversed then begin
      half_sweep l 1;
      half_sweep l 0
    end
    else begin
      half_sweep l 0;
      half_sweep l 1
    end;
    t.sweep_count <- t.sweep_count + 1;
    Lattice_obs.Metrics.Counter.incr sweeps_total
  done

(* residual r = b - A x on free cells (0 on fixed cells) *)
let residual (l : level) =
  let n = l.n in
  let x = l.x and b = l.b and gx = l.gx and gy = l.gy and diag = l.diag and res = l.r in
  for r = 0 to n - 1 do
    let row = r * n in
    for c = 0 to n - 1 do
      let i = row + c in
      if is_fixed l i then s res i 0.0
      else begin
        let acc = ref (g b i -. (g diag i *. g x i)) in
        if c > 0 then acc := !acc +. (g gx (i - 1) *. g x (i - 1));
        if c < n - 1 then acc := !acc +. (g gx i *. g x (i + 1));
        if r > 0 then acc := !acc +. (g gy (i - n) *. g x (i - n));
        if r < n - 1 then acc := !acc +. (g gy i *. g x (i + n));
        s res i !acc
      end
    done
  done

(* Aggregation (piecewise-constant) transfers over 2x2 blocks:
   restriction sums the four fine residuals of each block, prolongation
   injects the coarse correction into each free child. The pair is an
   exact transpose, and — crucially for the 9-decade conductivity
   contrasts of the device grids — never interpolates across a
   coefficient jump: a child inherits its own aggregate's value exactly.
   Together with the half-sum face coarsening this is the resistor-network
   aggregation, which keeps the smooth-error scaling of the coarse
   operator consistent (the sum of the four child equations of a smooth
   error equals the coarse equation with half-sum conductances). *)
let restrict (fine : level) (coarse : level) =
  let n = fine.n and nc = coarse.n in
  Bigarray.Array1.fill coarse.x 0.0;
  for rr = 0 to nc - 1 do
    for cc = 0 to nc - 1 do
      let i00 = (2 * rr * n) + (2 * cc) in
      s coarse.b ((rr * nc) + cc)
        (g fine.r i00 +. g fine.r (i00 + 1) +. g fine.r (i00 + n) +. g fine.r (i00 + n + 1))
    done
  done

let prolong_add (coarse : level) (fine : level) =
  let n = fine.n and nc = coarse.n in
  for rr = 0 to nc - 1 do
    for cc = 0 to nc - 1 do
      let v = g coarse.x ((rr * nc) + cc) in
      if v <> 0.0 then begin
        let i00 = (2 * rr * n) + (2 * cc) in
        let add i = if not (is_fixed fine i) then s fine.x i (g fine.x i +. v) in
        add i00;
        add (i00 + 1);
        add (i00 + n);
        add (i00 + n + 1)
      end
    done
  done

let rec cycle t depth =
  let l = t.levels.(depth) in
  if depth = Array.length t.levels - 1 then smooth t l ~reversed:false coarse_sweeps
  else begin
    smooth t l ~reversed:false pre_sweeps;
    residual l;
    restrict l t.levels.(depth + 1);
    cycle t (depth + 1);
    prolong_add t.levels.(depth + 1) l;
    smooth t l ~reversed:true post_sweeps
  end

(* one V-cycle improving levels.(0).x for the rhs in levels.(0).b *)
let v_cycle t =
  let t0 = Lattice_obs.Probe.enter vcycle_probe in
  cycle t 0;
  t.v_cycles <- t.v_cycles + 1;
  Lattice_obs.Metrics.Counter.incr vcycles_total;
  Lattice_obs.Probe.leave vcycle_probe t0

(* --- drivers ---------------------------------------------------------- *)

let dot (a : vec) (b : vec) =
  let acc = ref 0.0 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    acc := !acc +. (g a i *. g b i)
  done;
  !acc

let norm2 v = sqrt (dot v v)

let stats_of (t : t) ~iterations ~residual_norm ~converged =
  let v_cycles = t.v_cycles and sweeps = t.sweep_count in
  { iterations; v_cycles; sweeps; residual_norm; converged }

(* operator application on the finest level (free cells; fixed rows are 0) *)
let apply_fine (l : level) (p : vec) (out : vec) =
  let n = l.n in
  let gx = l.gx and gy = l.gy and diag = l.diag in
  for r = 0 to n - 1 do
    let row = r * n in
    for c = 0 to n - 1 do
      let i = row + c in
      if is_fixed l i then s out i 0.0
      else begin
        let acc = ref (g diag i *. g p i) in
        if c > 0 then acc := !acc -. (g gx (i - 1) *. g p (i - 1));
        if c < n - 1 then acc := !acc -. (g gx i *. g p (i + 1));
        if r > 0 then acc := !acc -. (g gy (i - n) *. g p (i - n));
        if r < n - 1 then acc := !acc -. (g gy i *. g p (i + n));
        s out i !acc
      end
    done
  done

(* flexible PCG (Polak-Ribiere beta) with one V-cycle as preconditioner *)
let pcg t ~b ?(tol = 1e-10) ?(max_iter = 400) () =
  let l = finest t in
  let nn = l.n * l.n in
  if Bigarray.Array1.dim b <> nn then invalid_arg "Multigrid.pcg: rhs size";
  let x = vec nn and r = vec nn and z = vec nn and z_prev = vec nn in
  let p = vec nn and ap = vec nn in
  (* zero initial guess; mask the rhs at fixed cells so norms only see
     free-cell equations *)
  for i = 0 to nn - 1 do
    s r i (if is_fixed l i then 0.0 else g b i)
  done;
  let b_norm = norm2 r in
  let target = if b_norm = 0.0 then tol else tol *. b_norm in
  let precondition () =
    Bigarray.Array1.blit r l.b;
    Bigarray.Array1.fill l.x 0.0;
    v_cycle t;
    l.x
  in
  let rz = ref 0.0 in
  let rec go k r_norm =
    if r_norm <= target then stats_of t ~iterations:k ~residual_norm:r_norm ~converged:true
    else if k >= max_iter then
      stats_of t ~iterations:k ~residual_norm:r_norm ~converged:false
    else begin
      let mz = precondition () in
      Bigarray.Array1.blit mz z;
      let rz_new = dot r z in
      if rz_new <= 0.0 then
        (* preconditioner lost positivity: keep the current iterate *)
        stats_of t ~iterations:k ~residual_norm:r_norm ~converged:false
      else begin
        if k = 0 then Bigarray.Array1.blit z p
        else begin
          (* flexible beta: r . (z - z_prev) / rz_old *)
          let num = ref 0.0 in
          for i = 0 to nn - 1 do
            num := !num +. (g r i *. (g z i -. g z_prev i))
          done;
          let beta = Float.max 0.0 (!num /. !rz) in
          for i = 0 to nn - 1 do
            s p i (g z i +. (beta *. g p i))
          done
        end;
        Bigarray.Array1.blit z z_prev;
        rz := rz_new;
        apply_fine l p ap;
        let p_ap = dot p ap in
        if p_ap <= 0.0 then stats_of t ~iterations:k ~residual_norm:r_norm ~converged:false
        else begin
          let alpha = rz_new /. p_ap in
          for i = 0 to nn - 1 do
            s x i (g x i +. (alpha *. g p i));
            s r i (g r i -. (alpha *. g ap i))
          done;
          go (k + 1) (norm2 r)
        end
      end
    end
  in
  let st = go 0 b_norm in
  (x, st)

(* rhs of the homogeneous-correction system for Dirichlet boundary values:
   b_i = sum over fixed neighbours j of g_ij * dirichlet_j *)
let dirichlet_rhs t ~dirichlet =
  let l = finest t in
  let n = l.n in
  let nn = n * n in
  if Bigarray.Array1.dim dirichlet <> nn then
    invalid_arg "Multigrid.dirichlet_rhs: dirichlet size";
  let b = vec nn in
  for r = 0 to n - 1 do
    let row = r * n in
    for c = 0 to n - 1 do
      let i = row + c in
      if not (is_fixed l i) then begin
        let acc = ref 0.0 in
        if c > 0 && is_fixed l (i - 1) then
          acc := !acc +. (g l.gx (i - 1) *. g dirichlet (i - 1));
        if c < n - 1 && is_fixed l (i + 1) then
          acc := !acc +. (g l.gx i *. g dirichlet (i + 1));
        if r > 0 && is_fixed l (i - n) then
          acc := !acc +. (g l.gy (i - n) *. g dirichlet (i - n));
        if r < n - 1 && is_fixed l (i + n) then
          acc := !acc +. (g l.gy i *. g dirichlet (i + n));
        s b i !acc
      end
    done
  done;
  b

let solve_dirichlet t ~dirichlet ?tol ?max_iter () =
  let l = finest t in
  let nn = l.n * l.n in
  let b = dirichlet_rhs t ~dirichlet in
  let x, st = pcg t ~b ?tol ?max_iter () in
  for i = 0 to nn - 1 do
    if is_fixed l i then s x i (g dirichlet i)
  done;
  (x, st)
