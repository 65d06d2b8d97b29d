module Sp = Lattice_spice
module N = Sp.Netlist
module E = Lattice_engine.Engine

type limits = { max_sweep_points : int; max_tran_steps : int }

let default_limits = { max_sweep_points = 10_000; max_tran_steps = 2_000_000 }

type analysis_result =
  | Op_result of { strategy : string; rows : (string * float) list }
  | Dc_result of {
      source : string;
      probes : string list;
      rows : (float * (string * float) list) list;
    }
  | Tran_result of {
      times : float array;
      nodes : (string * float array) list;
      currents : (string * float array) list;
      newton_iterations : int;
    }
  | Ac_result of {
      source : string;
      output : string;
      dc_gain : float;
      f_3db : float option;
      points : (float * float * float) list;  (* freq, |H|, phase deg *)
    }

type t = {
  title : string;
  digest : string;
  results : (Ast.analysis * analysis_result) list;
}

exception Run_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Run_error msg)) fmt

let is_ground name = name = "0" || String.lowercase_ascii name = "gnd"

(* the points a [.dc] card sweeps and the end time a [.tran] card runs
   to, after the smoke caps; counted in floats, so that a count past
   [max_int] or an infinite one meets the limits instead of wrapping *)
let sweep_points ~smoke start stop step =
  let n = Float.floor (((stop -. start) /. step) +. 1e-9) +. 1.0 in
  if smoke then Float.min n 5.0 else n

let tran_stop ~smoke step t_stop = if smoke then Float.min t_stop (step *. 50.0) else t_stop

let check_limits ?(smoke = false) ~limits (deck : Ast.deck) =
  let count n = if n < 1e15 then Printf.sprintf "%.0f" n else Printf.sprintf "%g" n in
  (* a count is within its limit only when [n <= limit], which no NaN is *)
  let over = function
    | Ast.Dc_sweep { start; stop; step; _ } ->
      let n = sweep_points ~smoke start stop step in
      if n <= float_of_int limits.max_sweep_points then None
      else Some (Printf.sprintf "dc sweep has %s points (limit %d)" (count n) limits.max_sweep_points)
    | Ast.Tran { step; t_stop } ->
      let n = Float.ceil (tran_stop ~smoke step t_stop /. step) in
      if n <= float_of_int limits.max_tran_steps then None
      else Some (Printf.sprintf "transient has %s steps (limit %d)" (count n) limits.max_tran_steps)
    | Ast.Op | Ast.Ac _ -> None
  in
  match List.find_map over deck.Ast.analyses with Some msg -> Error msg | None -> Ok ()

let run ~engine ?cancel ?(smoke = false) ?(limits = default_limits) (deck : Ast.deck) =
  let net = deck.Ast.netlist in
  let v_probes =
    List.filter_map (function Ast.Vprobe n -> Some n | Ast.Iprobe _ -> None)
      deck.Ast.prints
  in
  let i_probes =
    List.filter_map (function Ast.Iprobe n -> Some n | Ast.Vprobe _ -> None)
      deck.Ast.prints
  in
  (* Probed nodes, or every non-ground node when the deck has no .print. *)
  let watch_nodes =
    let names =
      if v_probes <> [] then v_probes else Array.to_list (N.all_node_names net)
    in
    List.filter (fun n -> not (is_ground n)) names
  in
  let node_of name =
    match N.find_node net name with
    | Some n -> n
    | None -> fail "unknown node %S" name
  in
  let read_rows x = List.map (fun name -> (name, Sp.Mna.voltage x (node_of name))) in
  let run_op () =
    match E.dc_op engine ?cancel net with
    | Ok (x, diag) ->
      Op_result
        {
          strategy = Sp.Dcop.strategy_name diag.Sp.Dcop.strategy;
          rows = read_rows x watch_nodes;
        }
    | Error f -> fail "operating point failed: %s" (Sp.Dcop.pp_failure f)
  in
  let run_dc source start stop step =
    (* within the limits, which [run] checked first *)
    let n = int_of_float (sweep_points ~smoke start stop step) in
    if N.vsource_index net source = None then fail "dc sweep: unknown voltage source V%s" source;
    (* each point is the deck with the swept source rebound: a distinct
       cacheable circuit, solved on the sweep's one workspace *)
    let workspace = E.workspace () in
    let rows =
      List.init n (fun i ->
          let v = start +. (step *. float_of_int i) in
          let net_i =
            N.rebind_vsources net (fun name -> if name = source then Some (Sp.Source.Dc v) else None)
          in
          match E.dc_op engine ?cancel ~workspace net_i with
          | Ok (x, _) -> (v, read_rows x watch_nodes)
          | Error f -> fail "dc sweep at %g V: %s" v (Sp.Dcop.pp_failure f))
    in
    Dc_result { source; probes = watch_nodes; rows }
  in
  let run_tran step t_stop =
    let t_stop = tran_stop ~smoke step t_stop in
    match
      Sp.Transient.run_diag ?cancel net ~h:step ~t_stop ~record:watch_nodes
        ~record_currents:i_probes ()
    with
    | Ok r ->
      let combine names arrays =
        List.init (Array.length names) (fun i -> (names.(i), arrays.(i)))
      in
      Tran_result
        {
          times = r.Sp.Transient.times;
          nodes = combine r.Sp.Transient.node_names r.Sp.Transient.voltages;
          currents = combine r.Sp.Transient.current_names r.Sp.Transient.currents;
          newton_iterations = r.Sp.Transient.newton_iterations_total;
        }
    | Error f ->
      fail "transient failed at t=%g (dt=%g): %s" f.Sp.Transient.at_time
        f.Sp.Transient.dt
        (Sp.Dcop.pp_failure f.Sp.Transient.dc_failure)
  in
  let run_ac points_per_decade f_start f_stop =
    let source =
      match deck.Ast.ac_source with
      | Some s -> s
      | None -> fail ".ac without an AC source (add 'AC 1' to a V card)"
    in
    let output =
      match List.filter (fun n -> not (is_ground n)) v_probes with
      | o :: _ -> o
      | [] -> fail ".ac needs a v(node) probe to select the output"
    in
    let points_per_decade = if smoke then Int.min points_per_decade 3 else points_per_decade in
    let response =
      try Sp.Ac.sweep net ~source ~output ~f_start ~f_stop ~points_per_decade with
      | Invalid_argument msg -> fail "ac sweep: %s" msg
      | Sp.Dcop.Convergence_failure msg -> fail "ac operating point failed: %s" msg
    in
    Ac_result
      {
        source;
        output;
        dc_gain = response.Sp.Ac.dc_gain;
        f_3db = Sp.Ac.f_3db response;
        points =
          List.map
            (fun (p : Sp.Ac.point) -> (p.freq_hz, p.magnitude, p.phase_deg))
            response.Sp.Ac.points;
      }
  in
  try
    Result.iter_error (fun msg -> raise (Run_error msg)) (check_limits ~smoke ~limits deck);
    if N.elements net = [] then fail "deck has no elements";
    let analyses = if deck.Ast.analyses = [] then [ Ast.Op ] else deck.Ast.analyses in
    let results =
      List.map
        (fun a ->
          let r =
            match a with
            | Ast.Op -> run_op ()
            | Ast.Dc_sweep { source; start; stop; step } -> run_dc source start stop step
            | Ast.Tran { step; t_stop } -> run_tran step t_stop
            | Ast.Ac { points_per_decade; f_start; f_stop } ->
              run_ac points_per_decade f_start f_stop
          in
          (a, r))
        analyses
    in
    Ok { title = deck.Ast.title; digest = N.structural_digest net; results }
  with
  | Run_error msg -> Error msg
  | Invalid_argument msg | Failure msg -> Error ("internal: " ^ msg)

(* Deterministic human-readable transcript shared by `ftl run` and the
   examples; row caps keep large sweeps readable. *)
let render (r : t) =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "deck: %s\n" r.title;
  out "digest: %s\n" r.digest;
  List.iter
    (fun (_, res) ->
      match res with
      | Op_result { strategy; rows } ->
        out "[op] converged via %s\n" strategy;
        let shown = List.filteri (fun i _ -> i < 24) rows in
        List.iter (fun (name, v) -> out "  v(%s) = %.6g\n" name v) shown;
        let extra = List.length rows - List.length shown in
        if extra > 0 then out "  ... (%d more nodes)\n" extra
      | Dc_result { source; probes; rows } ->
        out "[dc] sweep V%s, %d points: %s\n" source (List.length rows)
          (String.concat " " (List.map (fun p -> "v(" ^ p ^ ")") probes));
        let shown = List.filteri (fun i _ -> i < 20) rows in
        List.iter
          (fun (v, cols) ->
            out "  %-10.6g" v;
            List.iter (fun (_, x) -> out " %12.6g" x) cols;
            out "\n")
          shown;
        let extra = List.length rows - List.length shown in
        if extra > 0 then out "  ... (%d more points)\n" extra
      | Tran_result { times; nodes; currents; newton_iterations } ->
        out "[tran] %d samples to t=%.6g, %d newton iters\n" (Array.length times)
          (if Array.length times = 0 then 0.0 else times.(Array.length times - 1))
          newton_iterations;
        List.iter
          (fun (name, samples) ->
            let mn = Array.fold_left Float.min Float.infinity samples in
            let mx = Array.fold_left Float.max Float.neg_infinity samples in
            out "  v(%s): min=%.6g max=%.6g final=%.6g\n" name mn mx
              samples.(Array.length samples - 1))
          nodes;
        List.iter
          (fun (name, samples) ->
            out "  i(V%s): final=%.6g\n" name samples.(Array.length samples - 1))
          currents
      | Ac_result { source; output; dc_gain; f_3db; points } ->
        out "[ac] V%s -> v(%s), %d points\n" source output (List.length points);
        out "  dc gain = %.6g\n" dc_gain;
        (match f_3db with
         | Some f -> out "  f_3db = %.6g Hz\n" f
         | None -> out "  f_3db = beyond sweep\n"))
    r.results;
  Buffer.contents buf
