module Sp = Lattice_spice
module Grid = Lattice_core.Grid
module Tt = Lattice_boolfn.Truthtable
module Faults = Lattice_synthesis.Faults
module Exhaustive = Lattice_synthesis.Exhaustive
module Defects = Sp.Defects
module Engine = Lattice_engine.Engine
module Pool = Lattice_engine.Pool
module Cancel = Lattice_spice.Cancel

type classification = Functional | Degraded | Faulty | Non_convergent

let classification_name = function
  | Functional -> "functional"
  | Degraded -> "degraded"
  | Faulty -> "faulty"
  | Non_convergent -> "non-convergent"

type budget = { newton_per_sample : int }

type options = {
  config : Sp.Lattice_circuit.config;
  params : Defects.params;
  dc : Sp.Dcop.options;
  budget : budget;
  classes : Defects.kind_class list;
  multi_defect_samples : int;
  seed : int;
  attempt_repair : bool;
}

let default_options =
  {
    config = Sp.Lattice_circuit.default_config;
    params = Defects.default_params;
    dc = Sp.Dcop.default_options;
    budget = { newton_per_sample = 20_000 };
    classes = Defects.all_classes;
    multi_defect_samples = 0;
    seed = 42;
    attempt_repair = true;
  }

(* V from [vdd/2] below which a correct output level counts as degraded *)
let degraded_within_v = 0.15

(* defects per sampled multi-defect combination *)
let defects_per_combo = 2

(* extra columns the remapper may add to the fabric *)
let spare_columns = 1

type sample = {
  defects : Defects.t list;
  classification : classification;
  worst_v_low : float;
  worst_v_high : float;
  mismatches : int list;
  detected_by : int list;
  failure : Sp.Dcop.failure option;
  newton_iterations : int;
}

let iterations_of_attempts attempts = List.fold_left (fun acc (_, n) -> acc + n) 0 attempts

let state_zero options =
  Sp.Lattice_circuit.state_stimulus ~vdd:options.config.Sp.Lattice_circuit.vdd 0

(* The defective circuit's output voltage (and solve diagnostics) as a
   function of the input state; built once per call, i.e. once per job. *)
let defective_circuit ?seeds engine ~options grid ~defects =
  Engine.lattice_output engine ~options:options.dc ?seeds
    (Defects.build ~config:options.config ~params:options.params ~defects grid
       ~stimulus:(state_zero options))

(* one sample, its solves seeded when [run] passes the nominal circuit's
   solutions *)
let run_sample ?seeds ?engine ?(cancel = Cancel.none) ?(options = default_options) grid ~target
    ~test_set defects =
  let nvars = Tt.nvars target in
  if nvars > 5 then invalid_arg "Fault_campaign.simulate: too many inputs";
  if options.budget.newton_per_sample <= 0 then
    invalid_arg "Fault_campaign.simulate: newton_per_sample must be positive";
  let engine = Engine.or_fresh engine in
  let vdd = options.config.Sp.Lattice_circuit.vdd in
  let states = 1 lsl nvars in
  let output_at = defective_circuit ?seeds engine ~options grid ~defects in
  let used = ref 0 in
  let worst_low = ref 0.0 and worst_high = ref infinity in
  let mismatches = ref [] in
  let failure = ref None in
  (try
     for m = 0 to states - 1 do
       (* per-state checkpoint so deadlines bite even when every solve
          is a cache hit (the solver's own per-iteration checks never
          run on a warm cache) *)
       Cancel.check cancel;
       if !used >= options.budget.newton_per_sample then begin
         failure :=
           Some
             {
               Sp.Dcop.message =
                 Printf.sprintf "Newton budget exhausted (%d/%d iterations) before input state %d"
                   !used options.budget.newton_per_sample m;
               attempts = [];
               residual_norm = Float.nan;
               worst_nodes = [];
             };
         raise Exit
       end;
       (* cached hits replay the original diagnostics (Newton counts
          included), so budget accounting is identical on warm caches *)
       match output_at ~cancel m with
       | Error f ->
         used := !used + iterations_of_attempts f.Sp.Dcop.attempts;
         failure := Some f;
         raise Exit
       | Ok (v, diag) ->
         used := !used + diag.Sp.Dcop.newton_iterations;
         (* pull-down lattice: the circuit output is the complement of the
            lattice function *)
         let expected_high = not (Tt.eval target m) in
         if not (Bool.equal (v > vdd /. 2.0) expected_high) then mismatches := m :: !mismatches;
         if expected_high then worst_high := Float.min !worst_high v
         else worst_low := Float.max !worst_low v
     done
   with Exit -> ());
  let mismatches = List.rev !mismatches in
  let classification =
    match !failure with
    | Some _ -> Non_convergent
    | None ->
      if mismatches <> [] then Faulty
      else begin
        let low_bad = !worst_low > (vdd /. 2.0) -. degraded_within_v in
        let high_bad = Float.is_finite !worst_high && !worst_high < (vdd /. 2.0) +. degraded_within_v in
        if low_bad || high_bad then Degraded else Functional
      end
  in
  let detected_by = List.filter (fun v -> List.mem v mismatches) test_set in
  {
    defects;
    classification;
    worst_v_low = !worst_low;
    worst_v_high = !worst_high;
    mismatches;
    detected_by;
    failure = !failure;
    newton_iterations = !used;
  }

let simulate ?engine ?cancel ?options grid ~target ~test_set defects =
  run_sample ?engine ?cancel ?options grid ~target ~test_set defects

(* the logical fault a circuit defect projects to; the analog kinds have
   no logical counterpart *)
let logical_of_defect (d : Defects.t) =
  match d.Defects.kind with
  | Defects.Stuck_open ->
    Some { Faults.row = d.Defects.row; col = d.Defects.col; kind = Faults.Stuck_off }
  | Defects.Stuck_short ->
    Some { Faults.row = d.Defects.row; col = d.Defects.col; kind = Faults.Stuck_on }
  | Defects.Bridge _ | Defects.Broken_terminal _ | Defects.Gate_leak _ -> None

let verify_with_defects engine options grid ~target ~defects =
  let nvars = Tt.nvars target in
  let vdd = options.config.Sp.Lattice_circuit.vdd in
  let output_at = defective_circuit engine ~options grid ~defects in
  let ok = ref true in
  (try
     for m = 0 to (1 lsl nvars) - 1 do
       match output_at ~cancel:Cancel.none m with
       | Error _ ->
         ok := false;
         raise Exit
       | Ok (v, _) ->
         if not (Bool.equal (v > vdd /. 2.0) (not (Tt.eval target m))) then begin
           ok := false;
           raise Exit
         end
     done
   with Exit -> ());
  !ok

type repair = {
  defect : Defects.t;
  fault : Faults.fault;
  remapped : Grid.t option;
  spare_cols_used : int;
  reverified : bool;
}

(* exhaustive remapping is only feasible for small instances; outside the
   window the repair record simply reports no remapping was found *)
let remap_feasible ~rows ~cols ~nvars = rows * cols <= 12 && nvars <= 4

let repair_defect engine options grid ~target (d : Defects.t) (fault : Faults.fault) =
  let rows = grid.Grid.rows and cols = grid.Grid.cols in
  let nvars = Tt.nvars target in
  let entry =
    match fault.Faults.kind with
    | Faults.Stuck_off -> Grid.Const false
    | Faults.Stuck_on -> Grid.Const true
  in
  let try_cols c =
    if not (remap_feasible ~rows ~cols:c ~nvars) then None
    else
      Exhaustive.find_with_pins ~rows ~cols:c ~alphabet:Exhaustive.Literals_and_constants
        ~pins:[ ((fault.Faults.row * c) + fault.Faults.col, entry) ]
        target
  in
  let rec search c =
    if c > cols + spare_columns then None
    else match try_cols c with Some g -> Some (g, c - cols) | None -> search (c + 1)
  in
  match search cols with
  | None -> { defect = d; fault; remapped = None; spare_cols_used = 0; reverified = false }
  | Some (g, spare) ->
    (* re-verify at circuit level with the physical defect still present in
       the remapped lattice *)
    let reverified = verify_with_defects engine options g ~target ~defects:[ d ] in
    { defect = d; fault; remapped = Some g; spare_cols_used = spare; reverified }

type class_counts = {
  functional : int;
  degraded : int;
  faulty : int;
  non_convergent : int;
}

type report = {
  samples : sample array;
  counts : class_counts;
  logical : Faults.analysis;
  test_set : int list;
  detected : int;
  silent : int;
  repairs : repair list;
  total_newton : int;
}

let sample_detected s = s.detected_by <> [] || s.classification = Non_convergent

let multi_defect_sets rng universe ~samples ~order =
  let arr = Array.of_list universe in
  let n = Array.length arr in
  if n < 2 || samples <= 0 || order < 2 then []
  else
    List.init samples (fun _ ->
        let order = Int.min order n in
        let chosen = ref [] in
        while List.length !chosen < order do
          let i = Random.State.int rng n in
          if not (List.mem i !chosen) then chosen := i :: !chosen
        done;
        List.map (fun i -> arr.(i)) (List.sort Int.compare !chosen))

(* a sample the engine could not classify normally: worker crash,
   deadline, cancellation — reported as [Non_convergent] with a
   synthetic failure record so the campaign report stays total *)
let synthetic_sample ~defects message =
  {
    defects;
    classification = Non_convergent;
    worst_v_low = 0.0;
    worst_v_high = infinity;
    mismatches = [];
    detected_by = [];
    failure =
      Some { Sp.Dcop.message; attempts = []; residual_norm = Float.nan; worst_nodes = [] };
    newton_iterations = 0;
  }

(* retry escalation: attempt [k] runs under a Newton budget grown by
   [Engine.backoff^k] — a budget-exhausted sample gets a real second
   chance, not a replay of the same starvation *)
let options_for_attempt ~attempt options =
  if attempt = 0 then options
  else
    let factor = Engine.backoff ** float_of_int attempt in
    let grown =
      int_of_float (Float.ceil (float_of_int options.budget.newton_per_sample *. factor))
    in
    { options with budget = { newton_per_sample = Int.max 1 grown } }

let run ?engine ?(policy = Engine.default_policy) ?(cancel = Cancel.none)
    ?(options = default_options) ?universe grid ~target =
  let nvars = Tt.nvars target in
  if nvars > 5 then invalid_arg "Fault_campaign.run: too many inputs";
  let engine = Engine.or_fresh engine in
  let universe =
    match universe with
    | Some u -> u
    | None -> Defects.single_defects ~classes:options.classes grid
  in
  let rng = Random.State.make [| options.seed |] in
  let multi =
    multi_defect_sets rng universe ~samples:options.multi_defect_samples ~order:defects_per_combo
  in
  let logical = Faults.analyze grid in
  let test_set = logical.Faults.test_set in
  let sets = Array.of_list (List.map (fun d -> [ d ]) universe @ multi) in
  (* every sample starts Newton from the defect-free circuit's solution *)
  let seeds =
    Engine.nominal_seeds engine ~options:options.dc ~cancel
      (Sp.Lattice_circuit.build ~config:options.config grid ~stimulus:(state_zero options))
      ~states:(1 lsl nvars)
  in
  let samples =
    (* Each defect set is an independent job: results merge by index, so
       the report is bit-identical at any domain count. Dispatch is
       fault-isolated: a crashing, stalling or cancelled sample becomes a
       synthetic Non_convergent record, and Non_convergent samples are
       retried under an escalated Newton budget when the policy allows. *)
    Engine.run_jobs engine ~policy ~cancel ~phase:"fault-campaign"
      ~retryable:(fun s -> s.classification = Non_convergent)
      ~n:(Array.length sets)
      (fun ~attempt ~cancel i ->
        let options = options_for_attempt ~attempt options in
        run_sample ~seeds ~engine ~cancel ~options grid ~target ~test_set sets.(i))
    |> Array.mapi (fun i -> function
         | Pool.Done s -> s
         | Pool.Failed e ->
           synthetic_sample ~defects:sets.(i) ("worker exception: " ^ e.Pool.printed)
         | Pool.Timed_out -> synthetic_sample ~defects:sets.(i) "deadline exceeded"
         | Pool.Cancelled -> synthetic_sample ~defects:sets.(i) "cancelled")
  in
  let count c =
    Array.fold_left (fun acc s -> if s.classification = c then acc + 1 else acc) 0 samples
  in
  let counts =
    {
      functional = count Functional;
      degraded = count Degraded;
      faulty = count Faulty;
      non_convergent = count Non_convergent;
    }
  in
  let detected =
    Array.fold_left (fun acc s -> if sample_detected s then acc + 1 else acc) 0 samples
  in
  let silent =
    Array.fold_left
      (fun acc s ->
        match s.classification with
        | (Faulty | Degraded) when s.detected_by = [] -> acc + 1
        | Functional | Degraded | Faulty | Non_convergent -> acc)
      0 samples
  in
  let repairs =
    if not options.attempt_repair then []
    else begin
      (* one job per repairable detected single defect, in sample order;
         the batch token reaches repairs at job boundaries, and a repair
         it stops is left out *)
      let todo =
        Array.to_list samples
        |> List.filter_map (fun s ->
               match (s.defects, s.classification) with
               | [ d ], (Faulty | Degraded | Non_convergent) when sample_detected s ->
                 Option.map (fun fault -> (d, fault)) (logical_of_defect d)
               | _ -> None)
        |> Array.of_list
      in
      Engine.run_jobs engine ~cancel ~phase:"campaign-repair" ~n:(Array.length todo)
        (fun ~attempt:_ ~cancel:_ i ->
          let d, fault = todo.(i) in
          repair_defect engine options grid ~target d fault)
      |> Array.to_list
      |> List.filter_map (function
           | Pool.Done r -> Some r
           | Pool.Failed _ | Pool.Timed_out | Pool.Cancelled -> None)
    end
  in
  let total_newton = Array.fold_left (fun acc s -> acc + s.newton_iterations) 0 samples in
  { samples; counts; logical; test_set; detected; silent; repairs; total_newton }
