module Engine = Lattice_engine.Engine

type curve = { label : string; xs : float array; ys : float array }

type iv_set = {
  model : Device_model.t;
  case : Op_case.t;
  ids_vgs_low : curve list;
  ids_vgs_high : curve list;
  ids_vds : curve list;
}

let terminal_labels = [| "T1"; "T2"; "T3"; "T4" |]

let run ?engine model ~case ~points ~sweep =
  if points < 2 then invalid_arg "Sweep: need at least 2 points";
  let xs = Lattice_numerics.Vec.linspace 0.0 5.0 points in
  let point i =
    let vgs, vds = sweep xs.(i) in
    Device_model.terminal_currents model ~case ~vgs ~vds
  in
  let currents =
    (* Each bias point is independent; results merge by index, so the
       curves are bit-identical at any domain count. *)
    Engine.map (Engine.or_fresh engine) ~phase:"iv-sweep" ~n:points point
  in
  List.map
    (fun t ->
      {
        label = terminal_labels.(t);
        xs = Array.copy xs;
        ys = Array.map (fun i -> Float.abs i.(t)) currents;
      })
    [ 0; 1; 2; 3 ]

let ids_vgs ?engine model ~case ~vds ~points =
  run ?engine model ~case ~points ~sweep:(fun vgs -> (vgs, vds))

let ids_vds ?engine model ~case ~vgs ~points =
  run ?engine model ~case ~points ~sweep:(fun vds -> (vgs, vds))

let standard ?engine model =
  let engine = Engine.or_fresh engine in
  let case = Op_case.dsss in
  let points = 51 in
  {
    model;
    case;
    ids_vgs_low = ids_vgs ~engine model ~case ~vds:0.01 ~points;
    ids_vgs_high = ids_vgs ~engine model ~case ~vds:5.0 ~points;
    ids_vds = ids_vds ~engine model ~case ~vgs:5.0 ~points;
  }

let drain_curve set which =
  let curves =
    match which with
    | `Vgs_low -> set.ids_vgs_low
    | `Vgs_high -> set.ids_vgs_high
    | `Vds -> set.ids_vds
  in
  match curves with
  | t1 :: _ -> t1
  | [] -> invalid_arg "Sweep.drain_curve: empty set"

let threshold_from_sweep curve ~icrit =
  Lattice_numerics.Interp.first_crossing curve.xs curve.ys icrit
