module Interp = Lattice_numerics.Interp

let steady_levels times values ~settle =
  if Array.length times <> Array.length values || Array.length times = 0 then
    invalid_arg "Measure.steady_levels: bad input";
  let tail = ref [] in
  Array.iteri (fun i t -> if t >= settle then tail := values.(i) :: !tail) times;
  let arr = Array.of_list !tail in
  if Array.length arr = 0 then invalid_arg "Measure.steady_levels: settle beyond waveform";
  Array.sort compare arr;
  let n = Array.length arr in
  let pct p = arr.(Int.min (n - 1) (int_of_float (p *. float_of_int (n - 1)))) in
  (pct 0.05, pct 0.95)

let edge_time times values ~from_level ~to_level =
  let start_crossings = Interp.crossings times values from_level in
  let end_crossings = Interp.crossings times values to_level in
  (* first [from_level] crossing followed by a [to_level] crossing with no
     other [from_level] crossing in between: a clean edge *)
  let rec scan = function
    | [] -> None
    | t0 :: rest -> (
      let next_from = match rest with [] -> infinity | t :: _ -> t in
      match List.find_opt (fun t -> t > t0) end_crossings with
      | Some t1 when t1 <= next_from -> Some (t1 -. t0)
      | Some _ | None -> scan rest)
  in
  scan start_crossings

let edge_between times values ~from_level ~to_level = edge_time times values ~from_level ~to_level

let rise_time times values ~low ~high =
  let span = high -. low in
  if span <= 0.0 then invalid_arg "Measure.rise_time: high must exceed low";
  edge_time times values ~from_level:(low +. (0.1 *. span)) ~to_level:(low +. (0.9 *. span))

let fall_time times values ~low ~high =
  let span = high -. low in
  if span <= 0.0 then invalid_arg "Measure.fall_time: high must exceed low";
  edge_time times values ~from_level:(low +. (0.9 *. span)) ~to_level:(low +. (0.1 *. span))

let value_at times values t = Interp.lookup times values t

let integral times values =
  if Array.length times <> Array.length values then invalid_arg "Measure.integral: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length times - 2 do
    acc := !acc +. (0.5 *. (values.(i) +. values.(i + 1)) *. (times.(i + 1) -. times.(i)))
  done;
  !acc

let energy_from_supply ~vdd times supply_current =
  -.vdd *. integral times supply_current

let ascii_plot ~width ~height ~label times values =
  if width < 16 || height < 4 then invalid_arg "Measure.ascii_plot: too small";
  let tmin = Array.fold_left Float.min infinity times in
  let tmax = Array.fold_left Float.max neg_infinity times in
  let vmin = Array.fold_left Float.min infinity values in
  let vmax = Array.fold_left Float.max neg_infinity values in
  if tmax <= tmin then invalid_arg "Measure.ascii_plot: degenerate time axis";
  let vmax = if vmax <= vmin then vmin +. 1.0 else vmax in
  let canvas = Array.make_matrix height width ' ' in
  for col = 0 to width - 1 do
    let t = tmin +. ((tmax -. tmin) *. float_of_int col /. float_of_int (width - 1)) in
    let v = Interp.lookup times values t in
    let row = height - 1 - int_of_float ((v -. vmin) /. (vmax -. vmin) *. float_of_int (height - 1)) in
    canvas.(Int.max 0 (Int.min (height - 1) row)).(col) <- '*'
  done;
  let buf = Buffer.create (width * height) in
  Array.iteri
    (fun r row ->
      let v = vmax -. ((vmax -. vmin) *. float_of_int r /. float_of_int (height - 1)) in
      Buffer.add_string buf (Printf.sprintf "%10.3g |" v);
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    canvas;
  Buffer.add_string buf (String.make 11 ' ' ^ "+" ^ String.make width '-' ^ "\n");
  Buffer.add_string buf (Printf.sprintf "%10s  t: %.3g .. %.3g s   [*] %s  \n" "" tmin tmax label);
  Buffer.contents buf
