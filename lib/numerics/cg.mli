(** Matrix-free conjugate-gradient solver for symmetric positive-definite
    operators.

    Used by the 2-D field solver ([Lattice_device.Field2d]) as the
    reference path (the production path for large grids is
    [Multigrid.solve_dirichlet]), where the five-point operator is applied on the fly
    rather than assembled. *)

(** Why a solve ended. [converged] below is [status = Converged]; the
    other constructors disambiguate the old "[converged = false] at
    [max_iter]" case:
    - [Max_iterations]: the iteration cap was reached while the residual
      was still shrinking — raising [max_iter] may converge.
    - [Stagnated]: the residual failed to set a new best (improving on it
      by at least 0.1%) for 1000 consecutive iterations — more iterations
      will not help (round-off floor, or an inconsistent/indefinite
      system).
    - [Indefinite]: a search direction had non-positive curvature
      ([p' A p <= 0]); the operator is not SPD and CG is the wrong tool.

    Every solve increments the [cg.solves_total] obs counter and records
    its iteration count in the [cg.iterations] histogram; stagnated solves
    additionally increment [cg.stagnations_total]. *)
type status = Converged | Max_iterations | Stagnated | Indefinite

type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
  status : status;
}

(** [solve ~apply ~b ?tol ?max_iter ()] solves [A x = b] from a zero
    initial guess, where [apply x out] writes [A x] into [out]. The
    operator must be symmetric positive definite for convergence
    guarantees.

    @param tol relative residual target on [||r|| / ||b||] (default [1e-10])
    @param max_iter iteration cap (default [4 * length b]) *)
val solve :
  apply:(Vec.t -> Vec.t -> unit) ->
  b:Vec.t ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  result
