let mean v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 v /. float_of_int n

let variance v =
  let m = mean v in
  let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 v in
  acc /. float_of_int (Array.length v)

let stddev v = sqrt (variance v)

let check_pair name a b =
  if Array.length a <> Array.length b then invalid_arg ("Stats." ^ name ^ ": length mismatch");
  if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

let rmse observed predicted =
  check_pair "rmse" observed predicted;
  let acc = ref 0.0 in
  for i = 0 to Array.length observed - 1 do
    let d = observed.(i) -. predicted.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int (Array.length observed))

let r_squared observed predicted =
  check_pair "r_squared" observed predicted;
  let m = mean observed in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  for i = 0 to Array.length observed - 1 do
    let dt = observed.(i) -. m in
    let dr = observed.(i) -. predicted.(i) in
    ss_tot := !ss_tot +. (dt *. dt);
    ss_res := !ss_res +. (dr *. dr)
  done;
  if !ss_tot = 0.0 then nan else 1.0 -. (!ss_res /. !ss_tot)

let linear_regression xs ys =
  check_pair "linear_regression" xs ys;
  if Array.length xs < 2 then invalid_arg "Stats.linear_regression: need >= 2 samples";
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let dx = xs.(i) -. mx in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. (ys.(i) -. my))
  done;
  if !sxx = 0.0 then invalid_arg "Stats.linear_regression: xs are constant";
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))
