type integrator = Backward_euler | Trapezoidal

module Trace = Lattice_obs.Trace
module Metrics = Lattice_obs.Metrics

let steps_counter = Metrics.counter "transient.steps"
let halvings_counter = Metrics.counter "transient.halvings"
let step_dt_hist = Metrics.histogram "transient.step.dt"

(* same registry instrument Dcop feeds for operating-point solves *)
let newton_iter_hist = Metrics.histogram "newton.iterations"

type options = { integrator : integrator; dc : Dcop.options; max_step_halvings : int }

let default_options =
  { integrator = Trapezoidal; dc = Dcop.default_options; max_step_halvings = 8 }

type step_stats = {
  dc_strategy : Dcop.strategy option;
  steps_taken : int;
  halvings : int;
  min_dt : float;
  halving_events : (float * float) list;
}

type result = {
  times : float array;
  node_names : string array;
  voltages : float array array;
  current_names : string array;
  currents : float array array;
  newton_iterations_total : int;
  stats : step_stats;
}

type failure = {
  at_time : float;
  dt : float;
  newton_iterations_total : int;
  stats : step_stats;
  dc_failure : Dcop.failure;
}

let lookup_series ~fn ~kind names series name =
  let rec find i =
    if i >= Array.length names then
      let recorded =
        if Array.length names = 0 then "none"
        else String.concat ", " (Array.to_list names)
      in
      invalid_arg
        (Printf.sprintf "Transient.%s: unknown %s %S (recorded: %s)" fn kind name recorded)
    else if names.(i) = name then series.(i)
    else find (i + 1)
  in
  find 0

let signal result name =
  lookup_series ~fn:"signal" ~kind:"signal" result.node_names result.voltages name

let branch_current result name =
  lookup_series ~fn:"branch_current" ~kind:"voltage source" result.current_names result.currents
    name

let cap_nodes netlist =
  let out = ref [] in
  List.iter
    (function
      | Netlist.Capacitor { n1; n2; _ } ->
        out := (Netlist.node_index n1, Netlist.node_index n2) :: !out
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> ())
    (Netlist.elements netlist);
  let pairs = Array.of_list (List.rev !out) in
  (Array.map fst pairs, Array.map snd pairs)

let cap_farads netlist =
  let out = ref [] in
  List.iter
    (function
      | Netlist.Capacitor { farads; _ } -> out := farads :: !out
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> ())
    (Netlist.elements netlist);
  Array.of_list (List.rev !out)

(* Sample times for [0, t_stop] in steps of [h]. When [t_stop] is an
   integer multiple of [h] within 1e-6 relative tolerance the old uniform
   grid is used (the final sample is pinned to exactly [t_stop]); otherwise
   the grid is padded with one final partial step so the simulated duration
   is exactly [t_stop] instead of silently rounding [t_stop /. h]. *)
let sample_times ~h ~t_stop =
  let nsteps_f = t_stop /. h in
  let k = Float.round nsteps_f in
  if k >= 1.0 && Float.abs (nsteps_f -. k) <= 1e-6 *. k then
    let n = int_of_float k in
    Array.init (n + 1) (fun i -> if i = n then t_stop else float_of_int i *. h)
  else begin
    let nfull = int_of_float (Float.floor nsteps_f) in
    Array.init (nfull + 2) (fun i -> if i = nfull + 1 then t_stop else float_of_int i *. h)
  end

exception Step_failed of float * float * Dcop.failure

let run_diag ?(options = default_options) ?(cancel = Cancel.none) netlist ~h ~t_stop ~record
    ?(record_currents = []) () =
  if h <= 0.0 || t_stop <= 0.0 then invalid_arg "Transient.run: h and t_stop must be positive";
  let record_nodes = Array.of_list (List.map (fun name -> Netlist.node netlist name) record) in
  let record_rows =
    Array.of_list
      (List.map
         (fun name ->
           match Netlist.vsource_index netlist name with
           | Some idx -> Netlist.vsource_row netlist idx
           | None -> invalid_arg ("Transient.run: unknown voltage source " ^ name))
         record_currents)
  in
  (* one compiled plan reused by the DC solve and by every Newton solve
     of every step *)
  let plan = Stamp_plan.compile netlist in
  let newton_total = ref 0 in
  let steps_taken = ref 0 in
  let halvings = ref 0 in
  let min_dt = ref h in
  (* (t, dt) of each step whose Newton solve failed and was halved,
     newest first *)
  let halving_log = ref [] in
  let stats dc_strategy =
    {
      dc_strategy;
      steps_taken = !steps_taken;
      halvings = !halvings;
      min_dt = !min_dt;
      halving_events = List.rev !halving_log;
    }
  in
  let tr_sp =
    if Trace.on () then
      Trace.begin_span ~cat:"spice"
        ~args:[ ("h", Printf.sprintf "%.6g" h); ("t_stop", Printf.sprintf "%.6g" t_stop) ]
        "transient"
    else Trace.null
  in
  let finish r =
    Trace.end_span tr_sp;
    r
  in
  match Dcop.solve_diag ~options:options.dc ~plan ~time:0.0 ~cancel netlist with
  | exception e ->
    Trace.end_span tr_sp;
    raise e
  | Error dc_failure ->
    finish
      (Error
         {
           at_time = 0.0;
           dt = h;
           newton_iterations_total =
             dc_failure.Dcop.attempts |> List.fold_left (fun a (_, k) -> a + k) 0;
           stats = stats None;
           dc_failure;
         })
  | Ok (x_op, op_diag) ->
    newton_total := op_diag.Dcop.newton_iterations;
    let dc_strategy = Some op_diag.Dcop.strategy in
    let x_cur = ref x_op in
    let x_next = ref (Array.make (Array.length x_op) 0.0) in
    let farads = cap_farads netlist in
    let cap_n1, cap_n2 = cap_nodes netlist in
    let ncaps = Array.length farads in
    let v_prev = Array.make ncaps 0.0 in
    let i_prev = Array.make ncaps 0.0 in
    for k = 0 to ncaps - 1 do
      let v1 = if cap_n1.(k) < 0 then 0.0 else !x_cur.(cap_n1.(k)) in
      let v2 = if cap_n2.(k) < 0 then 0.0 else !x_cur.(cap_n2.(k)) in
      v_prev.(k) <- v1 -. v2
    done;
    let comp = { Mna.geq = Array.make ncaps 0.0; ieq = Array.make ncaps 0.0 } in
    let caps_opt = Some comp in
    let first_step = ref true in
    (* advance from [t] by [dt]; recursive halving on Newton failure.
       [advance] wraps [advance_body] in a per-step span, so halved
       sub-steps appear nested under the step that spawned them. *)
    let rec advance t dt halvings_here =
      if Trace.on () then begin
        let sp =
          Trace.begin_span ~cat:"spice"
            ~args:[ ("t", Printf.sprintf "%.6g" t); ("dt", Printf.sprintf "%.6g" dt) ]
            "step"
        in
        match advance_body t dt halvings_here with
        | () -> Trace.end_span sp
        | exception e ->
          Trace.end_span sp;
          raise e
      end
      else advance_body t dt halvings_here
    and advance_body t dt halvings_here =
      (* step boundary: a blown deadline stops the run here rather than
         escalating into the halving machinery *)
      Cancel.check cancel;
      let use_trap = options.integrator = Trapezoidal && not !first_step in
      for k = 0 to ncaps - 1 do
        if use_trap then begin
          comp.Mna.geq.(k) <- 2.0 *. farads.(k) /. dt;
          comp.Mna.ieq.(k) <- -.((comp.Mna.geq.(k) *. v_prev.(k)) +. i_prev.(k))
        end
        else begin
          comp.Mna.geq.(k) <- farads.(k) /. dt;
          comp.Mna.ieq.(k) <- -.(comp.Mna.geq.(k) *. v_prev.(k))
        end
      done;
      let step_iters = ref 0 in
      match
        Dcop.newton_into ~plan ~iter_count:step_iters netlist ~options:options.dc ~x0:!x_cur
          ~dst:!x_next ~time:(t +. dt) ~gmin:options.dc.Dcop.gmin_final ~source_scale:1.0
          ~caps:caps_opt
      with
      | _iters ->
        newton_total := !newton_total + !step_iters;
        incr steps_taken;
        Metrics.Counter.incr steps_counter;
        if Metrics.on () then begin
          Metrics.Histogram.observe step_dt_hist dt;
          Metrics.Histogram.observe newton_iter_hist (float_of_int !step_iters)
        end;
        min_dt := Float.min !min_dt dt;
        let x = !x_next in
        for k = 0 to ncaps - 1 do
          let v1 = if cap_n1.(k) < 0 then 0.0 else x.(cap_n1.(k)) in
          let v2 = if cap_n2.(k) < 0 then 0.0 else x.(cap_n2.(k)) in
          let v_new = v1 -. v2 in
          i_prev.(k) <- (comp.Mna.geq.(k) *. v_new) +. comp.Mna.ieq.(k);
          v_prev.(k) <- v_new
        done;
        let tmp = !x_cur in
        x_cur := !x_next;
        x_next := tmp;
        first_step := false
      | exception Dcop.Convergence_failure msg ->
        newton_total := !newton_total + !step_iters;
        if halvings_here >= options.max_step_halvings then begin
          (* [dst] holds the last Newton iterate of the failed step *)
          let residual_norm, worst_nodes =
            Dcop.residual_report ~plan netlist ~x:!x_next ~time:(t +. dt)
              ~gmin:options.dc.Dcop.gmin_final ~caps:caps_opt
          in
          raise
            (Step_failed
               ( t,
                 dt,
                 {
                   Dcop.message = msg;
                   attempts = [ (Dcop.Plain, !step_iters) ];
                   residual_norm;
                   worst_nodes;
                 } ))
        end;
        incr halvings;
        halving_log := (t, dt) :: !halving_log;
        Metrics.Counter.incr halvings_counter;
        if Trace.on () then
          Trace.instant ~cat:"spice"
            ~args:[ ("t", Printf.sprintf "%.6g" t); ("dt", Printf.sprintf "%.6g" dt) ]
            "halve";
        let half = dt /. 2.0 in
        advance t half (halvings_here + 1);
        advance (t +. half) half (halvings_here + 1)
    in
    let times = sample_times ~h ~t_stop in
    let nsamples = Array.length times in
    let voltages = Array.map (fun _ -> Array.make nsamples 0.0) record_nodes in
    let currents = Array.map (fun _ -> Array.make nsamples 0.0) record_rows in
    let sample k =
      let x = !x_cur in
      for idx = 0 to Array.length record_nodes - 1 do
        voltages.(idx).(k) <- Mna.voltage x record_nodes.(idx)
      done;
      for idx = 0 to Array.length record_rows - 1 do
        currents.(idx).(k) <- x.(record_rows.(idx))
      done
    in
    sample 0;
    (try
       for k = 1 to nsamples - 1 do
         advance times.(k - 1) (times.(k) -. times.(k - 1)) 0;
         sample k
       done;
       finish
         (Ok
            {
              times;
              node_names = Array.of_list record;
              voltages;
              current_names = Array.of_list record_currents;
              currents;
              newton_iterations_total = !newton_total;
              stats = stats dc_strategy;
            })
     with
    | Step_failed (at_time, dt, dc_failure) ->
      finish
        (Error
           {
             at_time;
             dt;
             newton_iterations_total = !newton_total;
             stats = stats dc_strategy;
             dc_failure;
           })
    | e ->
      (* cancellation (or anything unexpected) escapes with the span closed *)
      Trace.end_span tr_sp;
      raise e)

let run ?options ?cancel netlist ~h ~t_stop ~record ?record_currents () =
  match run_diag ?options ?cancel netlist ~h ~t_stop ~record ?record_currents () with
  | Ok r -> r
  | Error f ->
    raise
      (Dcop.Convergence_failure
         (Printf.sprintf "transient at t=%.4g: %s" f.at_time (Dcop.pp_failure f.dc_failure)))
