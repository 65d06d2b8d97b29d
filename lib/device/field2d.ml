type solver = Auto | Cg | Multigrid

(* grids at or above this edge go through multigrid under [Auto]; below it
   plain CG is already fast and stays the reference *)
let mg_threshold = 32

type result = {
  n : int;
  potential : float array;
  sigma : float array;
  jx : float array;
  jy : float array;
  terminal_currents : float array;
  channel_cv : float;
  source_share_cv : float;
  cg_iterations : int;
  v_cycles : int;
  solver_used : solver;
  converged : bool;
}

type cell_kind = Electrode of int | Channel | Access | Background

let sigma_electrode = 1e3
let sigma_background = 1e-6

(* gate-controlled channel conductivity (arbitrary units; Fig 8 is a
   qualitative profile) *)
let channel_sigma model ~vgs =
  let vth = model.Device_model.vth in
  if Geometry.is_depletion model.Device_model.geometry then begin
    let span = Threshold.phi_ms_junctionless -. vth in
    Float.max 0.01 (Float.min 2.0 ((vgs -. vth) /. span))
  end
  else Float.max 0.01 (vgs -. vth)

(* classify cell (x, y) in normalized [0,1)^2 coordinates; T1 = north
   (y near 0), T2 = east, T3 = south, T4 = west *)
let classify geometry ~x ~y =
  let g = geometry in
  let df = g.Geometry.electrode_d /. g.Geometry.device_x in
  (* cap the electrode band so adjacent electrodes never meet at corners
     (the physical device separates them in depth) *)
  let wf =
    Float.min (g.Geometry.electrode_w /. g.Geometry.device_x) (1.0 -. (4.0 *. df))
  in
  let within_band c = Float.abs (c -. 0.5) < wf /. 2.0 in
  if y < df && within_band x then Electrode 0
  else if x > 1.0 -. df && within_band y then Electrode 1
  else if y > 1.0 -. df && within_band x then Electrode 2
  else if x < df && within_band y then Electrode 3
  else begin
    let gf = g.Geometry.gate_extent /. g.Geometry.device_x in
    match g.Geometry.shape with
    | Geometry.Square ->
      let in_gate = Float.abs (x -. 0.5) < gf /. 2.0 && Float.abs (y -. 0.5) < gf /. 2.0 in
      if in_gate then Channel
      else begin
        (* access regions between each electrode's inner face and the gate *)
        let in_access =
          (within_band x && (y < (1.0 -. gf) /. 2.0 || y > (1.0 +. gf) /. 2.0))
          || (within_band y && (x < (1.0 -. gf) /. 2.0 || x > (1.0 +. gf) /. 2.0))
        in
        if in_access then Access else Background
      end
    | Geometry.Cross ->
      let arm = gf /. 2.0 in
      if Float.abs (x -. 0.5) < arm || Float.abs (y -. 0.5) < arm then Channel else Background
    | Geometry.Junctionless -> Channel
  end

let solve ?(n = 48) ?(solver = Auto) ?(tol = 1e-10) (variant : Presets.variant) ~case ~vgs ~vds =
  if not (Op_case.is_valid case) then invalid_arg "Field2d.solve: case needs a drain and a source";
  if n < 8 then invalid_arg "Field2d.solve: grid too coarse";
  let geometry = variant.Presets.geometry in
  let model = variant.Presets.model in
  let sigma_ch = channel_sigma model ~vgs in
  let kinds = Array.make (n * n) Background in
  let sigma = Array.make (n * n) sigma_background in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let x = (float_of_int c +. 0.5) /. float_of_int n in
      let y = (float_of_int r +. 0.5) /. float_of_int n in
      let k = classify geometry ~x ~y in
      kinds.((r * n) + c) <- k;
      sigma.((r * n) + c) <-
        (match k with
        | Electrode _ -> sigma_electrode
        | Channel -> sigma_ch
        | Access -> 0.3 *. sigma_ch
        | Background -> sigma_background)
    done
  done;
  (* terminal potentials; floating electrodes stay as unknowns *)
  let fixed_potential = Array.make (n * n) nan in
  Array.iteri
    (fun i k ->
      match k with
      | Electrode t -> (
        match case.(t) with
        | Op_case.Drain -> fixed_potential.(i) <- vds
        | Op_case.Source -> fixed_potential.(i) <- 0.0
        | Op_case.Floating -> ())
      | Channel | Access | Background -> ())
    kinds;
  let is_fixed i = not (Float.is_nan fixed_potential.(i)) in
  (* free-cell index map *)
  let free_index = Array.make (n * n) (-1) in
  let nfree = ref 0 in
  Array.iteri
    (fun i _ ->
      if not (is_fixed i) then begin
        free_index.(i) <- !nfree;
        incr nfree
      end)
    kinds;
  let nfree = !nfree in
  let face_g a b = 2.0 *. sigma.(a) *. sigma.(b) /. (sigma.(a) +. sigma.(b)) in
  let neighbors i =
    let r = i / n and c = i mod n in
    List.filter_map Fun.id
      [
        (if r > 0 then Some (i - n) else None);
        (if r < n - 1 then Some (i + n) else None);
        (if c > 0 then Some (i - 1) else None);
        (if c < n - 1 then Some (i + 1) else None);
      ]
  in
  let b = Array.make nfree 0.0 in
  Array.iteri
    (fun i k ->
      ignore k;
      if not (is_fixed i) then
        List.iter
          (fun j -> if is_fixed j then b.(free_index.(i)) <- b.(free_index.(i)) +. (face_g i j *. fixed_potential.(j)))
          (neighbors i))
    kinds;
  let solver_used =
    match solver with
    | Auto -> if n >= mg_threshold then Multigrid else Cg
    | (Cg | Multigrid) as s -> s
  in
  let potential = Array.make (n * n) 0.0 in
  let iterations, v_cycles, converged =
    match solver_used with
    | Cg ->
      let apply x out =
        Array.fill out 0 nfree 0.0;
        for i = 0 to (n * n) - 1 do
          if not (is_fixed i) then begin
            let fi = free_index.(i) in
            let acc = ref 0.0 in
            List.iter
              (fun j ->
                let g = face_g i j in
                acc := !acc +. g;
                if not (is_fixed j) then out.(fi) <- out.(fi) -. (g *. x.(free_index.(j))))
              (neighbors i);
            out.(fi) <- out.(fi) +. (!acc *. x.(fi))
          end
        done
      in
      let cg = Lattice_numerics.Cg.solve ~apply ~b ~tol ~max_iter:(8 * nfree) () in
      Array.iteri
        (fun i _ ->
          potential.(i) <-
            (if is_fixed i then fixed_potential.(i)
             else cg.Lattice_numerics.Cg.solution.(free_index.(i))))
        kinds;
      (cg.Lattice_numerics.Cg.iterations, 0, cg.Lattice_numerics.Cg.converged)
    | Multigrid | Auto ->
      let module Mg = Lattice_numerics.Multigrid in
      let nn = n * n in
      let gx = Mg.vec nn and gy = Mg.vec nn in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          let i = (r * n) + c in
          if c < n - 1 then gx.{i} <- face_g i (i + 1);
          if r < n - 1 then gy.{i} <- face_g i (i + n)
        done
      done;
      let fixed = Bytes.make nn '\000' in
      let dirichlet = Mg.vec nn in
      for i = 0 to nn - 1 do
        if is_fixed i then begin
          Bytes.set fixed i '\001';
          dirichlet.{i} <- fixed_potential.(i)
        end
      done;
      let mg = Mg.create ~n ~gx ~gy ~fixed in
      let x, st = Mg.solve_dirichlet mg ~dirichlet ~tol () in
      for i = 0 to nn - 1 do
        potential.(i) <- x.{i}
      done;
      (st.Mg.iterations, st.Mg.v_cycles, st.Mg.converged)
  in
  (* current density: J = -sigma grad V (central differences, grid units) *)
  let jx = Array.make (n * n) 0.0 and jy = Array.make (n * n) 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let i = (r * n) + c in
      let vxm = if c > 0 then potential.(i - 1) else potential.(i) in
      let vxp = if c < n - 1 then potential.(i + 1) else potential.(i) in
      let vym = if r > 0 then potential.(i - n) else potential.(i) in
      let vyp = if r < n - 1 then potential.(i + n) else potential.(i) in
      jx.(i) <- -.sigma.(i) *. (vxp -. vxm) /. 2.0;
      jy.(i) <- -.sigma.(i) *. (vyp -. vym) /. 2.0
    done
  done;
  (* terminal currents: flux across electrode boundary faces, positive into
     the electrode *)
  let terminal_currents = Array.make 4 0.0 in
  for i = 0 to (n * n) - 1 do
    match kinds.(i) with
    | Electrode t ->
      List.iter
        (fun j ->
          match kinds.(j) with
          | Electrode t' when t' = t -> ()
          | Electrode _ | Channel | Access | Background ->
            terminal_currents.(t) <-
              terminal_currents.(t) +. (face_g i j *. (potential.(j) -. potential.(i))))
        (neighbors i)
    | Channel | Access | Background -> ()
  done;
  (* uniformity of |J| over channel cells *)
  let mags = ref [] in
  Array.iteri
    (fun i k ->
      match k with
      | Channel ->
        let m = sqrt ((jx.(i) *. jx.(i)) +. (jy.(i) *. jy.(i))) in
        if m > 0.0 then mags := m :: !mags
      | Electrode _ | Access | Background -> ())
    kinds;
  let mags = Array.of_list !mags in
  let channel_cv =
    if Array.length mags < 2 then 0.0
    else Lattice_numerics.Stats.stddev mags /. Lattice_numerics.Stats.mean mags
  in
  let source_currents =
    List.map (fun s -> Float.abs terminal_currents.(s)) (Op_case.sources case)
  in
  let source_share_cv =
    match source_currents with
    | [] | [ _ ] -> 0.0
    | _ ->
      let arr = Array.of_list source_currents in
      Lattice_numerics.Stats.stddev arr /. Lattice_numerics.Stats.mean arr
  in
  {
    n;
    potential;
    sigma;
    jx;
    jy;
    terminal_currents;
    channel_cv;
    source_share_cv;
    cg_iterations = iterations;
    v_cycles;
    solver_used;
    converged;
  }

let ascii result ~width =
  let n = result.n in
  let width = Int.max 8 (Int.min width n) in
  let chars = " .:-=+*#%@" in
  let mag i = sqrt ((result.jx.(i) *. result.jx.(i)) +. (result.jy.(i) *. result.jy.(i))) in
  let mmax = ref 0.0 in
  for i = 0 to (n * n) - 1 do
    mmax := Float.max !mmax (mag i)
  done;
  let buf = Buffer.create (width * width) in
  for rr = 0 to width - 1 do
    for cc = 0 to width - 1 do
      let r = rr * n / width and c = cc * n / width in
      let m = mag ((r * n) + c) in
      let level =
        if !mmax = 0.0 then 0
        else Int.min 9 (int_of_float (sqrt (m /. !mmax) *. 9.99))
      in
      Buffer.add_char buf chars.[level];
      Buffer.add_char buf chars.[level]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
