(** Least-squares optimizer: [levenberg_marquardt] is the fitter used for
    the level-1 MOSFET parameter extraction (the role MATLAB's Curve
    Fitting Toolbox plays in the paper). *)

type lm_result = {
  params : Vec.t;  (** fitted parameters *)
  rmse : float;  (** root-mean-square residual at the solution *)
  iterations : int;
  converged : bool;
}

(** [levenberg_marquardt ~residuals ~x0 ?max_iter ()] minimizes
    [0.5 * ||residuals x||^2]. The Jacobian is formed by forward
    differences. Damping starts at [1e-3] and adapts by factors of 10.
    Convergence: relative decrease of the cost below [1e-12] with an
    accepted step, or a gradient that small. *)
val levenberg_marquardt :
  residuals:(Vec.t -> Vec.t) ->
  x0:Vec.t ->
  ?max_iter:int ->
  unit ->
  lm_result
