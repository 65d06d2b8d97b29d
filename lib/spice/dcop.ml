module Vec = Lattice_numerics.Vec
module Sparse = Lattice_numerics.Sparse
module Trace = Lattice_obs.Trace
module Metrics = Lattice_obs.Metrics

exception Convergence_failure of string

let solves_counter = Metrics.counter "dcop.solves"
let fallback_counter = Metrics.counter "dcop.fallbacks"
let newton_iter_hist = Metrics.histogram "newton.iterations"

type options = {
  max_iterations : int;
  abstol : float;
  reltol : float;
  gmin_final : float;
  gmin_steps : float list;
  source_steps : int;
  damping : float;
}

let default_options =
  {
    max_iterations = 200;
    abstol = 1e-9;
    reltol = 1e-6;
    gmin_final = 1e-12;
    gmin_steps = [ 1e-3; 1e-5; 1e-7; 1e-9; 1e-12 ];
    source_steps = 10;
    damping = 1.0;
  }

type strategy =
  | Plain
  | Gmin_stepping
  | Damped_plain
  | Damped_gmin
  | Source_stepping
  | Damped_source
  | Gshunt_ramp

let strategy_name = function
  | Plain -> "plain"
  | Gmin_stepping -> "gmin-stepping"
  | Damped_plain -> "damped"
  | Damped_gmin -> "damped-gmin"
  | Source_stepping -> "source-stepping"
  | Damped_source -> "damped-source"
  | Gshunt_ramp -> "gshunt-ramp"

(* Newton iterations the plain rung may spend: when plain converges it
   usually does so within a few dozen iterations, and past that it mostly
   chatters until the budget runs out *)
let plain_budget = 40

type diagnostics = {
  strategy : strategy;
  attempts : (strategy * int) list;
  newton_iterations : int;
}

type failure = {
  message : string;
  attempts : (strategy * int) list;
  residual_norm : float;
  worst_nodes : (string * float) list;
}

let pp_failure f =
  let ladder =
    String.concat ", "
      (List.map (fun (s, k) -> Printf.sprintf "%s:%d" (strategy_name s) k) f.attempts)
  in
  let nodes =
    String.concat ", " (List.map (fun (n, r) -> Printf.sprintf "%s (%.3g A)" n r) f.worst_nodes)
  in
  Printf.sprintf "%s [ladder %s; |r|=%.3g; worst %s]" f.message ladder f.residual_norm nodes

let converged options x_old x_new =
  let n = Array.length x_old in
  let rec go i =
    i >= n
    ||
    let d = Float.abs (x_new.(i) -. x_old.(i)) in
    d <= options.abstol +. (options.reltol *. Float.abs x_new.(i)) && go (i + 1)
  in
  go 0

let bump = function None -> () | Some r -> incr r

(* KCL residual of the nonlinear system at [x]: the companion
   linearization A(x) x' = b(x) is exact at its own expansion point, so
   r = A(x) x - b(x) is the true device-equation residual. Assembled on
   [plan], overwriting its buffers: this runs only on the failure path,
   the next solve rebinds the plan (dropping its LU) and the
   first-factorization memo keeps its own copy of the values. *)
let residual_report ~plan ?(time = 0.0) ?(gmin = default_options.gmin_final) ?(gshunt = 0.0)
    ?(source_scale = 1.0) ?(caps = None) netlist ~x =
  Stamp_plan.set_linear plan ~time ~gmin ~gshunt ~source_scale ~caps;
  Stamp_plan.assemble plan ~x;
  let b = Stamp_plan.rhs plan in
  let r = Array.make (Array.length b) 0.0 in
  Sparse.iteri (Stamp_plan.matrix plan) (fun _ row col v -> r.(row) <- r.(row) +. (v *. x.(col)));
  let norm = ref 0.0 in
  Array.iteri
    (fun i bi ->
      r.(i) <- r.(i) -. bi;
      norm := Float.max !norm (Float.abs r.(i)))
    b;
  let nnodes = Netlist.num_nodes netlist in
  let nodes = List.init nnodes (fun i -> (i, Float.abs r.(i))) in
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) nodes in
  let rec take k = function
    | (i, v) :: rest when k > 0 && v > 0.0 ->
      (Netlist.node_name netlist (i + 1), v) :: take (k - 1) rest
    | _ -> []
  in
  (!norm, take 3 sorted)

(* Newton over the compiled stamp plan: allocation-free after the
   plan's first factorization (all buffers are plan-owned). On failure the
   last iterate is left in [dst] for the caller's diagnostics. *)
let newton_into ?(gshunt = 0.0) ~plan ?iter_count ?(cancel = Cancel.none) netlist
    ~options ~x0 ~dst ~time ~gmin ~source_scale ~caps =
  let nnodes = Netlist.num_nodes netlist in
  let n = Stamp_plan.n plan in
  let x = Stamp_plan.x_buffer plan and x_new = Stamp_plan.x_new_buffer plan in
  let k = ref 0 in
  let done_ = ref false in
  let sp = Trace.begin_span ~cat:"spice" "newton" in
  match
    Array.blit x0 0 x 0 n;
    Stamp_plan.set_linear plan ~time ~gmin ~gshunt ~source_scale ~caps;
    while not !done_ do
      (* iteration boundary: a blown deadline stops here, leaving the last
         iterate in [dst] exactly like a convergence failure would *)
      (match Cancel.state cancel with
      | None -> ()
      | Some r ->
        Array.blit x 0 dst 0 n;
        raise (Cancel.Cancelled r));
      if !k >= options.max_iterations then begin
        Array.blit x 0 dst 0 n;
        raise
          (Convergence_failure (Printf.sprintf "Newton: no convergence after %d iterations" !k))
      end;
      bump iter_count;
      Stamp_plan.assemble plan ~x;
      (try Stamp_plan.factor_and_solve plan
       with Sparse.Singular col ->
         Array.blit x 0 dst 0 n;
         raise (Convergence_failure (Printf.sprintf "singular MNA matrix at column %d" col)));
      Array.blit (Stamp_plan.rhs plan) 0 x_new 0 n;
      (* limit per-step voltage change to keep the level-1 model in range *)
      for i = 0 to nnodes - 1 do
        let d = x_new.(i) -. x.(i) in
        if Float.abs d > options.damping then
          x_new.(i) <- x.(i) +. Float.copy_sign options.damping d
      done;
      incr k;
      if converged options x x_new then begin
        Array.blit x_new 0 dst 0 n;
        done_ := true
      end
      else Array.blit x_new 0 x 0 n
    done
  with
  | () ->
    Trace.end_span sp;
    !k
  | exception e ->
    Trace.end_span sp;
    raise e

let solve_diag ?(options = default_options) ?plan ?x0 ?(time = 0.0) ?(cancel = Cancel.none)
    netlist =
  let n = Netlist.unknowns netlist in
  if n = 0 then begin
    Ok ([||], { strategy = Plain; attempts = []; newton_iterations = 0 })
  end
  else begin
    Metrics.Counter.incr solves_counter;
    let sp = Trace.begin_span ~cat:"spice" "dcop" in
    let plan =
      match plan with
      | Some p ->
        Stamp_plan.rebind p netlist;
        p
      | None -> Stamp_plan.compile netlist
    in
    (* [x0] steers the plain rung only; every fallback starts from 0 V.
       Nodes that OFF switches isolate have only a gmin-defined voltage,
       and a continuation started elsewhere can settle them elsewhere. *)
    let zeros = Vec.zeros n in
    let start = match x0 with Some x -> x | None -> zeros in
    (* last Newton iterate of the most recent failed attempt, for the
       failure diagnostics *)
    let last_x = Vec.copy start in
    let run_newton ?gshunt ~options ~count ~x0 ~gmin ~source_scale () =
      let dst = Array.make n 0.0 in
      (try
         ignore
           (newton_into ?gshunt ~plan ~iter_count:count ~cancel netlist ~options ~x0
              ~dst ~time ~gmin ~source_scale ~caps:None)
       with (Convergence_failure _ | Cancel.Cancelled _) as e ->
         Array.blit dst 0 last_x 0 n;
         raise e);
      dst
    in
    let attempt_plain ~x0 options count () =
      run_newton ~options ~count ~x0 ~gmin:options.gmin_final ~source_scale:1.0 ()
    in
    let attempt_gmin options count () =
      let x = ref zeros in
      List.iter
        (fun gmin -> x := run_newton ~options ~count ~x0:!x ~gmin ~source_scale:1.0 ())
        options.gmin_steps;
      run_newton ~options ~count ~x0:!x ~gmin:options.gmin_final ~source_scale:1.0 ()
    in
    let attempt_source options count () =
      let x = ref zeros in
      for k = 1 to options.source_steps do
        let scale = float_of_int k /. float_of_int options.source_steps in
        x := run_newton ~options ~count ~x0:!x ~gmin:options.gmin_final ~source_scale:scale ()
      done;
      !x
    in
    (* heavily damped settings suppress the source/drain-swap chattering
       that plain Newton can fall into on badly matched devices *)
    let damped =
      { options with damping = Float.min 0.1 options.damping; max_iterations = 4 * options.max_iterations }
    in
    (* last resort: walk a node-to-ground shunt from strong to negligible,
       warm-starting each stage. The ladder stops at 1e-12 S rather than 0:
       a node left floating by OFF switches has no zero-shunt operating
       point, and the residual bias (~fA) sits far below the device leakage
       floor. *)
    let attempt_gshunt options count () =
      let x = ref zeros in
      List.iter
        (fun gshunt ->
          x := run_newton ~gshunt ~options ~count ~x0:!x ~gmin:options.gmin_final ~source_scale:1.0 ())
        [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; 1e-12 ];
      !x
    in
    (* source stepping seldom wins and costs the most when it fails, so
       the damped rungs go before it *)
    let ladder =
      [
        ( Plain,
          attempt_plain ~x0:start
            { options with max_iterations = Int.min plain_budget options.max_iterations } );
        (Gmin_stepping, attempt_gmin options);
        (Damped_plain, attempt_plain ~x0:zeros damped);
        (Damped_gmin, attempt_gmin damped);
        (Source_stepping, attempt_source options);
        (Damped_source, attempt_source damped);
        (Gshunt_ramp, attempt_gshunt damped);
      ]
    in
    let attempts = ref [] in
    let total () = List.fold_left (fun acc (_, k) -> acc + k) 0 !attempts in
    let rec try_ladder last_msg = function
      | [] ->
        let residual_norm, worst_nodes =
          residual_report ~plan netlist ~x:last_x ~time ~gmin:options.gmin_final
        in
        let f =
          { message = last_msg; attempts = List.rev !attempts; residual_norm; worst_nodes }
        in
        Metrics.Histogram.observe newton_iter_hist (float_of_int (total ()));
        Trace.end_span sp;
        Error f
      | (tag, attempt) :: rest -> (
        Cancel.check cancel;
        let count = ref 0 in
        let asp = Trace.begin_span ~cat:"spice" ("dcop:" ^ strategy_name tag) in
        match attempt count () with
        | x ->
          Trace.end_span asp;
          attempts := (tag, !count) :: !attempts;
          let d = { strategy = tag; attempts = List.rev !attempts; newton_iterations = total () } in
          Metrics.Histogram.observe newton_iter_hist (float_of_int d.newton_iterations);
          Trace.end_span sp;
          Ok (x, d)
        | exception Convergence_failure msg ->
          Trace.end_span asp;
          attempts := (tag, !count) :: !attempts;
          Metrics.Counter.incr fallback_counter;
          if Trace.on () then
            Trace.instant ~cat:"spice"
              ~args:[ ("strategy", strategy_name tag); ("iterations", string_of_int !count) ]
              "dcop.fallback";
          try_ladder msg rest
        | exception e ->
          (* cancellation (and anything else unexpected) aborts the whole
             ladder — it is not a convergence failure and must escape *)
          Trace.end_span asp;
          Trace.end_span sp;
          raise e)
    in
    try_ladder "no strategy attempted" ladder
  end

let solve ?options ?plan ?x0 ?time ?cancel netlist =
  match solve_diag ?options ?plan ?x0 ?time ?cancel netlist with
  | Ok (x, _) -> x
  | Error f -> raise (Convergence_failure ("all DC strategies failed: " ^ pp_failure f))
