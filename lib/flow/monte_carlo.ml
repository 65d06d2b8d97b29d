module Sp = Lattice_spice
module Grid = Lattice_core.Grid
module Tt = Lattice_boolfn.Truthtable
module L1 = Lattice_mosfet.Level1
module Model = Lattice_mosfet.Model
module Engine = Lattice_engine.Engine
module Pool = Lattice_engine.Pool
module Cancel = Lattice_spice.Cancel

type variation = { sigma_vth : float; sigma_kp_rel : float }

let default_variation = { sigma_vth = 0.03; sigma_kp_rel = 0.10 }

type outcome = { functional : bool; worst_v_low : float; worst_v_high : float }

type result = {
  samples : int;
  yield : float;
  outcomes : outcome array;
  v_low_mean : float;
  v_low_std : float;
  v_high_mean : float;
}

let gaussian rng =
  (* Box-Muller *)
  let u1 = Float.max 1e-12 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let perturb_params rng variation (p : L1.params) =
  {
    p with
    L1.vth = p.L1.vth +. (variation.sigma_vth *. gaussian rng);
    kp = Float.max 1e-9 (p.L1.kp *. (1.0 +. (variation.sigma_kp_rel *. gaussian rng)));
  }

let perturb_model rng variation = function
  | Model.L1 p -> Model.L1 (perturb_params rng variation p)
  | Model.L3 p3 ->
    Model.L3 { p3 with Lattice_mosfet.Level3.base = perturb_params rng variation p3.Lattice_mosfet.Level3.base }

let perturb_types rng variation (t : Sp.Fts.mosfet_types) =
  {
    Sp.Fts.type_a = perturb_model rng variation t.Sp.Fts.type_a;
    type_b = perturb_model rng variation t.Sp.Fts.type_b;
  }

let run ?engine ?(policy = Engine.default_policy) ?(cancel = Cancel.none)
    ?(config = Sp.Lattice_circuit.default_config) ?(variation = default_variation)
    ?(samples = 100) ?(seed = 42) grid ~target =
  let nvars = Tt.nvars target in
  if nvars > 5 then invalid_arg "Monte_carlo.run: too many inputs";
  if samples < 1 then invalid_arg "Monte_carlo.run: need at least one sample";
  let engine = Engine.or_fresh engine in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let states = 1 lsl nvars in
  let stimulus = Sp.Lattice_circuit.state_stimulus ~vdd 0 in
  (* every die starts Newton from the unperturbed circuit's solution *)
  let seeds =
    Engine.nominal_seeds engine ~cancel (Sp.Lattice_circuit.build ~config grid ~stimulus) ~states
  in
  let one_sample ~cancel index =
    (* One die: a fixed per-site perturbation reused across input states.
       Each die draws from an index-derived RNG stream (seed-splitting by
       hash of [seed, index]) instead of one sequential stream, so die k
       is identical whether or not dies 0..k-1 ran — the property that
       makes the Domain pool's out-of-order execution bit-identical to
       the 1-domain run. *)
    let rng = Engine.sample_rng ~seed ~index in
    let site_types =
      Array.init (Grid.size grid) (fun _ -> perturb_types rng variation config.Sp.Lattice_circuit.types)
    in
    let types_of_site r c = site_types.((r * grid.Grid.cols) + c) in
    let worst_low = ref 0.0 and worst_high = ref infinity and ok = ref true in
    let output_at =
      Engine.lattice_output engine ~seeds (Sp.Lattice_circuit.build ~config ~types_of_site grid ~stimulus)
    in
    for m = 0 to states - 1 do
      (* per-state checkpoint: deadlines bite on warm caches too *)
      Cancel.check cancel;
      match output_at ~cancel m with
      | Error _ ->
        (* an unsimulatable die counts as a failed die *)
        ok := false
      | Ok (v, _) ->
        let expected_high = not (Tt.eval target m) in
        if not (Bool.equal (v > vdd /. 2.0) expected_high) then ok := false;
        if expected_high then worst_high := Float.min !worst_high v
        else worst_low := Float.max !worst_low v
    done;
    { functional = !ok; worst_v_low = !worst_low; worst_v_high = !worst_high }
  in
  let outcomes =
    (* Dispatch is fault-isolated: a die whose worker crashes or blows
       its deadline is scored as a failed die, never an exception out of
       the yield run. Retrying a die never changes its perturbations (the
       RNG stream is a pure function of (seed, index)). *)
    Engine.run_jobs engine ~policy ~cancel ~phase:"monte-carlo" ~n:samples
      (fun ~attempt:_ ~cancel i -> one_sample ~cancel i)
    |> Array.map (function
         | Pool.Done o -> o
         | Pool.Failed _ | Pool.Timed_out | Pool.Cancelled ->
           (* an unscorable die counts against yield *)
           { functional = false; worst_v_low = 0.0; worst_v_high = infinity })
  in
  let functional_count =
    Array.fold_left (fun acc o -> if o.functional then acc + 1 else acc) 0 outcomes
  in
  let v_lows = Array.map (fun o -> o.worst_v_low) outcomes in
  let v_highs =
    Array.map (fun o -> if Float.is_finite o.worst_v_high then o.worst_v_high else vdd) outcomes
  in
  {
    samples;
    yield = float_of_int functional_count /. float_of_int samples;
    outcomes;
    v_low_mean = Lattice_numerics.Stats.mean v_lows;
    v_low_std = Lattice_numerics.Stats.stddev v_lows;
    v_high_mean = Lattice_numerics.Stats.mean v_highs;
  }
