type status = Converged | Max_iterations | Stagnated | Indefinite

type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
  status : status;
}

let solves_total = Lattice_obs.Metrics.counter "cg.solves_total"
let stagnations_total = Lattice_obs.Metrics.counter "cg.stagnations_total"
let iterations_hist = Lattice_obs.Metrics.histogram "cg.iterations"

(* the residual must set a new best (improved by at least the factor)
   within [stagnation_window] iterations of the previous best, or the
   solve is declared stagnated. The window is deliberately generous:
   ill-conditioned CG residuals plateau (even rise) for long stretches
   before dropping. *)
let stagnation_window = 1000
let stagnation_factor = 0.999

let solve ~apply ~b ?(tol = 1e-10) ?max_iter () =
  Lattice_obs.Metrics.Counter.incr solves_total;
  let n = Array.length b in
  let max_iter = match max_iter with Some m -> m | None -> 4 * n in
  let x = Vec.zeros n in
  let ax = Vec.zeros n in
  apply x ax;
  let r = Vec.sub b ax in
  let p = Vec.copy r in
  let ap = Vec.zeros n in
  let b_norm = Vec.norm2 b in
  let target = if b_norm = 0.0 then tol else tol *. b_norm in
  let rs_old = ref (Vec.dot r r) in
  let best = ref infinity in
  let best_iter = ref 0 in
  let finish iter r_norm status =
    if status = Stagnated then Lattice_obs.Metrics.Counter.incr stagnations_total;
    Lattice_obs.Metrics.Histogram.observe iterations_hist (float_of_int iter);
    { solution = x; iterations = iter; residual_norm = r_norm;
      converged = (status = Converged); status }
  in
  let rec loop iter =
    let r_norm = sqrt !rs_old in
    if r_norm <= target then finish iter r_norm Converged
    else if iter >= max_iter then finish iter r_norm Max_iterations
    else if
      (if r_norm < stagnation_factor *. !best then begin
         best := r_norm;
         best_iter := iter;
         false
       end
       else iter - !best_iter >= stagnation_window)
    then finish iter r_norm Stagnated
    else begin
      apply p ap;
      let p_ap = Vec.dot p ap in
      if p_ap <= 0.0 then
        (* operator not SPD along p; stop rather than diverge *)
        finish iter r_norm Indefinite
      else begin
        let alpha = !rs_old /. p_ap in
        Vec.axpy alpha p x;
        Vec.axpy (-.alpha) ap r;
        let rs_new = Vec.dot r r in
        let beta = rs_new /. !rs_old in
        for i = 0 to n - 1 do
          p.(i) <- r.(i) +. (beta *. p.(i))
        done;
        rs_old := rs_new;
        loop (iter + 1)
      end
    end
  in
  loop 0
