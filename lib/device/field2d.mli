(** Two-dimensional finite-difference conduction solver — the substitute
    for the paper's TCAD current-density vector profiles (Fig 8).

    The device footprint is discretized into an [n x n] cell-centred grid
    with a per-cell conductivity: high in the four electrodes, gate-bias
    dependent in the channel region (whose shape follows the gate: square
    block, cross arms, or the whole wire), and near-insulating elsewhere.
    Solving [div (sigma grad V) = 0] with Dirichlet conditions on the
    electrodes (drain at [vds], sources at 0) by conjugate gradients yields
    the potential, the current-density field [J = -sigma grad V], the
    per-terminal currents and a uniformity metric — the paper's qualitative
    claim being that the cross gate spreads the current far more uniformly
    across terminals than the square gate. *)

(** Linear-solver selection. [Auto] (the default) uses geometric multigrid
    ([Lattice_numerics.Multigrid], V-cycle-preconditioned flexible CG) for
    grids with [n >= 32] and plain conjugate gradients below that; [Cg]
    forces the matrix-free reference path, [Multigrid] forces the
    multigrid path. Both paths solve the same discrete system to the same
    relative-residual tolerance, so results agree to solver precision. *)
type solver = Auto | Cg | Multigrid

type result = {
  n : int;  (** grid edge (cells) *)
  potential : float array;  (** n*n, row-major, volts *)
  sigma : float array;  (** per-cell conductivity used in the solve *)
  jx : float array;  (** current density x-component per cell *)
  jy : float array;
  terminal_currents : float array;  (** into T1..T4, A (per unit depth) *)
  channel_cv : float;  (** coefficient of variation of |J| over channel cells *)
  source_share_cv : float;  (** CV of the per-source current split *)
  cg_iterations : int;  (** CG iterations, or PCG iterations for multigrid *)
  v_cycles : int;  (** multigrid V-cycles run (0 on the CG path) *)
  solver_used : solver;  (** the resolved solver ([Cg] or [Multigrid]) *)
  converged : bool;
}

(** [solve ?n ?solver ?tol variant ~case ~vgs ~vds] runs the solver
    ([n] defaults to 48, [solver] to [Auto], [tol] to [1e-10] relative
    residual). Raises [Invalid_argument] for an invalid case. *)
val solve :
  ?n:int ->
  ?solver:solver ->
  ?tol:float ->
  Presets.variant ->
  case:Op_case.t ->
  vgs:float ->
  vds:float ->
  result

(** [ascii result ~width] renders the current-density magnitude as an ASCII
    heat map (characters [" .:-=+*#%@"]), for terminal output. *)
val ascii : result -> width:int -> string
