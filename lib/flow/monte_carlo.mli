(** Monte-Carlo process-variation analysis of lattice circuits.

    Emerging-device lattices live or die by variability, and the paper's
    planned fabrication step makes yield the first question its simulation
    flow must answer. This module samples per-switch threshold-voltage and
    gain variations (independent Gaussians, the standard local-mismatch
    model), re-simulates the lattice at DC over every input combination,
    and reports functional yield plus output-level statistics. *)

type variation = {
  sigma_vth : float;  (** absolute Vth sigma, V *)
  sigma_kp_rel : float;  (** relative Kp sigma (e.g. 0.1 = 10%) *)
}

type outcome = {
  functional : bool;  (** output matches NOT f on every combination *)
  worst_v_low : float;  (** highest logic-0 output over the combinations *)
  worst_v_high : float;  (** lowest logic-1 output *)
}

type result = {
  samples : int;
  yield : float;  (** fraction of functional samples *)
  outcomes : outcome array;
  v_low_mean : float;
  v_low_std : float;
  v_high_mean : float;
}

(** [run ?engine ?config ?variation ?samples ?seed grid ~target] runs the
    campaign: each sample perturbs every switch independently and checks
    the DC response against [target] (the function the lattice should
    realize; the circuit output is its complement). Defaults: 100
    samples, seed 42, 30 mV Vth sigma and 10% Kp sigma (typical
    nano-device local mismatch). Requires
    [Truthtable.nvars target <= 5].

    Sample [k]'s perturbations come from an index-derived RNG stream
    ({!Lattice_engine.Engine.sample_rng}), so the result is a pure
    function of [(seed, k)] — independent of how many samples run and in
    what order. Samples fan out over the engine's fault-isolated
    {!Lattice_engine.Engine.run_jobs} (phase ["monte-carlo"]). Before
    the dies, the unperturbed circuit is solved once at every input
    state ({!Lattice_engine.Engine.nominal_seeds}, under [cancel]), and
    each die's plain Newton rung starts from the solution at its state.
    A die's circuit is built once and checked at every input state
    through {!Lattice_engine.Engine.lattice_output}: the DC solves go
    through
    the engine's content-addressed cache on the die's job-scoped
    workspace (one plan compile and, on a cold cache, one full LU
    analysis per die); without [engine] they run on
    {!Lattice_engine.Engine.or_fresh}'s 1-domain engine, and the result
    is bit-identical at any domain count. A die
    whose worker crashes, blows its [policy] deadline, or is cancelled
    is scored as a failed (non-functional) die instead of raising —
    retries under [policy] re-draw the {e same} perturbations, so a
    retried die that completes is indistinguishable from one that
    never faulted. *)
val run :
  ?engine:Lattice_engine.Engine.t ->
  ?policy:Lattice_engine.Engine.job_policy ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?config:Lattice_spice.Lattice_circuit.config ->
  ?variation:variation ->
  ?samples:int ->
  ?seed:int ->
  Lattice_core.Grid.t ->
  target:Lattice_boolfn.Truthtable.t ->
  result
