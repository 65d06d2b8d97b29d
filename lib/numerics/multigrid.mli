(** Geometric multigrid for the cell-centred variable-coefficient operator
    [div (sigma grad V)] on an [n x n] grid, described by per-face
    conductances and a Dirichlet mask.

    Every level solves the homogeneous-Dirichlet correction equation
    (fixed cells hold 0 and are never written); Dirichlet boundary values
    are lifted into the right-hand side with {!dirichlet_rhs} /
    {!solve_dirichlet}. The cycle is V(2,2): red-black Gauss-Seidel
    smoothing (colour order reversed on the post-sweeps) and aggregation
    (piecewise-constant) transfers over 2x2 blocks — restriction sums the
    four fine residuals, prolongation injects the coarse correction, an
    exact transpose pair that never interpolates across a coefficient
    jump; coarse face conductances are the half-sum of the two fine faces
    crossing each coarse interface. Grids halve while even and [>= 8];
    the coarsest level is relaxed with a fixed number of sweeps.

    The production driver is {!pcg}: flexible (Polak-Ribiere)
    preconditioned conjugate gradients with one V-cycle per iteration,
    robust to the mild asymmetry the boundary clamping introduces.

    Observability: each V-cycle runs under the [mg.vcycle] probe
    (histogram [mg.vcycle.seconds]) and bumps [mg.v_cycles_total]; every
    smoother sweep bumps [mg.smoother_sweeps_total]. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

type stats = {
  iterations : int;  (** PCG iterations *)
  v_cycles : int;  (** V-cycles run by this hierarchy since {!create} *)
  sweeps : int;  (** smoother sweeps (one sweep = both colours) since {!create} *)
  residual_norm : float;
  converged : bool;
}

val vec : int -> vec
(** Zero-filled Bigarray vector helper. *)

(** [create ~n ~gx ~gy ~fixed] builds the level hierarchy.
    [gx.(r*n + c)] is the face conductance between cells [(r, c)] and
    [(r, c+1)] (ignored for [c = n-1]); [gy.(r*n + c)] between [(r, c)]
    and [(r+1, c)] (ignored for [r = n-1]); [fixed] marks Dirichlet cells
    with a non-zero byte. Coefficients are copied; a coarse cell is
    Dirichlet when any of its four children is. Raises [Invalid_argument]
    on size mismatches or [n < 3]. *)
val create : n:int -> gx:vec -> gy:vec -> fixed:Bytes.t -> t

val n_levels : t -> int

(** [pcg t ~b ?tol ?max_iter ()] solves [A x = b] with zero values on
    Dirichlet cells, by V-cycle-preconditioned flexible CG. [tol] is the
    relative residual target on free cells (default [1e-10], matching
    {!Cg.solve}); [max_iter] defaults to 400. Returns the solution (0 at
    fixed cells) and the run's stats. *)
val pcg : t -> b:vec -> ?tol:float -> ?max_iter:int -> unit -> vec * stats

(** [dirichlet_rhs t ~dirichlet] lifts boundary values into the
    correction right-hand side: [b_i = sum_j g_ij * dirichlet_j] over the
    fixed neighbours [j] of each free cell [i]. *)
val dirichlet_rhs : t -> dirichlet:vec -> vec

(** [solve_dirichlet t ~dirichlet ?tol ?max_iter ()] runs {!pcg} on
    {!dirichlet_rhs} and writes the Dirichlet values back into the
    returned solution, so the result is the full potential field. *)
val solve_dirichlet : t -> dirichlet:vec -> ?tol:float -> ?max_iter:int -> unit -> vec * stats
