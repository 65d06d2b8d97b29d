exception Singular of int

type factored = {
  n : int;
  lu : float array; (* row-major; unit lower triangle below diagonal, U on and above *)
  perm : int array; (* row permutation applied during elimination *)
}

let pivot_floor = 1e-300

(* Observability probes shared (by histogram name) with the sparse
   engine, so "factor.seconds" aggregates whichever engine ran. *)
let factor_probe =
  Lattice_obs.Probe.make ~cat:"numerics" ~args:[ ("engine", "dense") ] ~hist:"factor.seconds"
    "factor"

let solve_probe =
  Lattice_obs.Probe.make ~cat:"numerics" ~args:[ ("engine", "dense") ] ~hist:"solve.seconds"
    "solve"

(* Doolittle elimination with partial pivoting on a scratch copy. *)
let factor_impl (m : Matrix.t) =
  if m.Matrix.rows <> m.Matrix.cols then invalid_arg "Lu.factor: matrix not square";
  let n = m.Matrix.rows in
  let lu = Array.copy m.Matrix.data in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* choose pivot row *)
    let best = ref k in
    let best_mag = ref (Float.abs lu.((k * n) + k)) in
    for r = k + 1 to n - 1 do
      let mag = Float.abs lu.((r * n) + k) in
      if mag > !best_mag then begin
        best := r;
        best_mag := mag
      end
    done;
    if !best_mag < pivot_floor then raise (Singular k);
    if !best <> k then begin
      let b = !best in
      for c = 0 to n - 1 do
        let tmp = lu.((k * n) + c) in
        lu.((k * n) + c) <- lu.((b * n) + c);
        lu.((b * n) + c) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(b);
      perm.(b) <- tmp
    end;
    let pivot = lu.((k * n) + k) in
    for r = k + 1 to n - 1 do
      let factor = lu.((r * n) + k) /. pivot in
      lu.((r * n) + k) <- factor;
      if factor <> 0.0 then
        for c = k + 1 to n - 1 do
          lu.((r * n) + c) <- lu.((r * n) + c) -. (factor *. lu.((k * n) + c))
        done
    done
  done;
  { n; lu; perm }

let factor m =
  let t0 = Lattice_obs.Probe.enter factor_probe in
  match factor_impl m with
  | f ->
    Lattice_obs.Probe.leave factor_probe t0;
    f
  | exception e ->
    Lattice_obs.Probe.leave factor_probe t0;
    raise e

let solve_in_place_impl f b =
  let { n; lu; perm; _ } = f in
  if Array.length b <> n then invalid_arg "Lu.solve: size mismatch";
  (* apply permutation *)
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* backward substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. lu.((i * n) + i)
  done;
  Array.blit x 0 b 0 n

let solve_in_place f b =
  let t0 = Lattice_obs.Probe.enter solve_probe in
  solve_in_place_impl f b;
  Lattice_obs.Probe.leave solve_probe t0

let solve f b =
  let out = Array.copy b in
  solve_in_place f out;
  out
