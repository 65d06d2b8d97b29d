type lm_result = { params : Vec.t; rmse : float; iterations : int; converged : bool }

let jacobian residuals x r0 =
  let n = Array.length x and m = Array.length r0 in
  let jac = Matrix.create m n in
  for j = 0 to n - 1 do
    let h = 1e-6 *. Float.max 1e-8 (Float.abs x.(j)) in
    let xj = x.(j) in
    x.(j) <- xj +. h;
    let r1 = residuals x in
    x.(j) <- xj;
    for i = 0 to m - 1 do
      Matrix.set jac i j ((r1.(i) -. r0.(i)) /. h)
    done
  done;
  jac

let levenberg_marquardt ~residuals ~x0 ?(max_iter = 200) () =
  let tol = 1e-12 in
  let n = Array.length x0 in
  let x = Vec.copy x0 in
  let cost r = 0.5 *. Vec.dot r r in
  let r = ref (residuals x) in
  let c = ref (cost !r) in
  let lambda = ref 1e-3 in
  let m = Array.length !r in
  if m = 0 then invalid_arg "Optimize.levenberg_marquardt: no residuals";
  let finish iterations converged =
    { params = Vec.copy x; rmse = sqrt (2.0 *. !c /. float_of_int m); iterations; converged }
  in
  let rec loop iter =
    if iter >= max_iter then finish iter false
    else begin
      let jac = jacobian residuals x !r in
      (* normal equations: (J^T J + lambda * diag(J^T J)) dx = -J^T r *)
      let jt = Matrix.transpose jac in
      let jtj = Matrix.mat_mul jt jac in
      let g = Matrix.mat_vec jt !r in
      let g_norm = Vec.norm_inf g in
      if g_norm < tol then finish iter true
      else begin
        let rec try_step attempts =
          if attempts > 30 then None
          else begin
            let a = Matrix.copy jtj in
            for i = 0 to n - 1 do
              let d = Matrix.get jtj i i in
              let damp = if d = 0.0 then !lambda else !lambda *. d in
              Matrix.add_to a i i damp
            done;
            match Lu.factor a with
            | exception Lu.Singular _ ->
              lambda := !lambda *. 10.0;
              try_step (attempts + 1)
            | f ->
              let dx = Lu.solve f (Vec.scale (-1.0) g) in
              let x_try = Vec.add x dx in
              let r_try = residuals x_try in
              let c_try = cost r_try in
              if Float.is_nan c_try || c_try >= !c then begin
                lambda := !lambda *. 10.0;
                try_step (attempts + 1)
              end
              else Some (x_try, r_try, c_try)
          end
        in
        match try_step 0 with
        | None -> finish iter false
        | Some (x_new, r_new, c_new) ->
          let improvement = (!c -. c_new) /. Float.max 1e-300 !c in
          Array.blit x_new 0 x 0 n;
          r := r_new;
          c := c_new;
          lambda := Float.max 1e-12 (!lambda /. 10.0);
          if improvement < tol then finish (iter + 1) true else loop (iter + 1)
      end
    end
  in
  loop 0
