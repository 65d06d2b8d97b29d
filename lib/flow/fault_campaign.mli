(** Graceful-degradation fault campaign: simulate a lattice under every
    circuit-level defect, classify the outcomes, and close the loop with
    logical test generation and defect-aware remapping.

    The campaign enumerates the single-defect universe of
    {!Lattice_spice.Defects.single_defects} (plus optional randomly
    sampled combinations of two defects), builds each defective netlist
    once and solves it at every input state with
    {!Lattice_engine.Engine.lattice_output} (rebound input drivers,
    memoized {!Lattice_spice.Dcop.solve_diag}) — so a sample that refuses to
    converge is {e classified}, never an exception, and carries the full
    structured failure (failed strategy ladder, residual norm, worst
    nodes).

    {2 Outcome classes}

    - [Functional]: every input state produces the boolean-correct output
      with healthy noise margins;
    - [Degraded]: boolean-correct, but some output level comes within
      0.15 V of the [vdd/2] decision threshold;
    - [Faulty]: at least one input state produces the wrong boolean
      output; the offending vectors are recorded in [mismatches];
    - [Non_convergent]: some state failed to solve (or the sample ran out
      of Newton budget); [failure] holds the diagnostics.

    {2 Budget semantics}

    [budget.newton_per_sample] caps the {e total} Newton iterations one
    sample may spend across all of its input states (every rung of every
    fallback ladder counts). The cap is checked before each state's
    solve; exhaustion classifies the sample [Non_convergent] with a
    synthetic failure record, and the campaign moves on. This bounds the
    runtime of a campaign whose pathological samples would otherwise
    grind through the whole fallback ladder at every state.

    {2 Detection and repair}

    Each sample's circuit-level [mismatches] are cross-checked against
    the logical test set of {!Lattice_synthesis.Faults.analyze}:
    [detected_by] lists the test vectors that catch the defect at circuit
    level. For detected single defects with a logical counterpart
    (stuck-open = stuck-OFF, stuck-short = stuck-ON), the campaign remaps
    the function around the pinned defect site with
    {!Lattice_synthesis.Exhaustive.find_with_pins} — first in the
    original fabric, then widening by one spare column —
    and re-verifies the remapped lattice at circuit level {e with the
    defect still injected}. Each repair is one engine job (phase
    ["campaign-repair"]); a repair that does not complete — the batch
    [cancel] token stopped it before it started, or it raised — is left
    out of [repairs]. *)

type classification = Functional | Degraded | Faulty | Non_convergent

val classification_name : classification -> string

type budget = { newton_per_sample : int }

type options = {
  config : Lattice_spice.Lattice_circuit.config;
  params : Lattice_spice.Defects.params;
  dc : Lattice_spice.Dcop.options;
  budget : budget;
  classes : Lattice_spice.Defects.kind_class list;  (** universe restriction (default: all) *)
  multi_defect_samples : int;  (** sampled two-defect combos (default 0) *)
  seed : int;  (** RNG seed for multi-defect sampling (default 42) *)
  attempt_repair : bool;  (** remap detected structural defects (default true) *)
}

val default_options : options

type sample = {
  defects : Lattice_spice.Defects.t list;
  classification : classification;
  worst_v_low : float;  (** highest output voltage over the logic-low states *)
  worst_v_high : float;  (** lowest output voltage over the logic-high states ([infinity] if none) *)
  mismatches : int list;  (** input vectors with the wrong boolean output *)
  detected_by : int list;  (** logical test vectors among [mismatches] *)
  failure : Lattice_spice.Dcop.failure option;  (** present iff [Non_convergent] *)
  newton_iterations : int;  (** total spent across the sample's states *)
}

(** [simulate grid ~target ~test_set defects] runs one sample: the grid
    with [defects] injected, DC-solved over all [2^nvars] input states
    under the Newton budget. Never raises on convergence trouble. The
    defective circuit is built once and checked through
    {!Lattice_engine.Engine.lattice_output}: its DC solves share one
    job-scoped workspace and go through the engine's content-addressed
    cache (without [engine], a fresh {!Lattice_engine.Engine.or_fresh}
    one); cached
    hits replay the original diagnostics, so Newton-budget accounting
    is identical on warm and cold caches. [cancel] is checked before
    every input state (and inside every solve); a fired token raises
    {!Lattice_spice.Cancel.Cancelled} — inside {!run} that exception
    is converted to a classified sample. *)
val simulate :
  ?engine:Lattice_engine.Engine.t ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?options:options ->
  Lattice_core.Grid.t ->
  target:Lattice_boolfn.Truthtable.t ->
  test_set:int list ->
  Lattice_spice.Defects.t list ->
  sample

type repair = {
  defect : Lattice_spice.Defects.t;
  fault : Lattice_synthesis.Faults.fault;
  remapped : Lattice_core.Grid.t option;  (** [None] when no remapping exists in the window *)
  spare_cols_used : int;
  reverified : bool;  (** circuit-level re-verification with the defect injected *)
}

type class_counts = {
  functional : int;
  degraded : int;
  faulty : int;
  non_convergent : int;
}

type report = {
  samples : sample array;  (** single-defect samples first, then multi-defect combos *)
  counts : class_counts;
  logical : Lattice_synthesis.Faults.analysis;
  test_set : int list;
  detected : int;  (** samples caught by the test set (non-convergent count as caught) *)
  silent : int;  (** faulty or degraded samples the logical test set misses *)
  repairs : repair list;
  total_newton : int;
}

(** [run ?engine ?policy ?cancel ?options ?universe grid ~target] runs
    the whole campaign. [universe] overrides the enumerated
    single-defect list (the multi-defect combos are sampled from it
    too). Continues past every failure; the only exceptions raised are
    argument errors.

    The independent defect samples fan out over the engine's
    fault-isolated {!Lattice_engine.Engine.run_jobs} (phase
    ["fault-campaign"]), then the repairs (phase ["campaign-repair"]);
    without [engine] both run on {!Lattice_engine.Engine.or_fresh}'s
    1-domain engine. Before the samples, the defect-free circuit
    ([Lattice_circuit.build ~config grid]) is solved once at every input
    state ({!Lattice_engine.Engine.nominal_seeds}, under [cancel]), and
    each sample's plain Newton rungs start from those solutions; the
    repairs' re-verifications start from 0 V. Results merge by index,
    so the report is bit-identical at any domain count. A sample whose
    worker crashes,
    blows its [policy] deadline, or is cancelled becomes a
    [Non_convergent] sample whose failure message says why
    (["worker exception: …"], ["deadline exceeded"], ["cancelled"]) —
    no exception escapes. With [policy.attempts > 1], [Non_convergent]
    samples (budget exhaustion included) are retried under a Newton
    budget and deadline grown by {!Lattice_engine.Engine.backoff} per
    attempt. *)
val run :
  ?engine:Lattice_engine.Engine.t ->
  ?policy:Lattice_engine.Engine.job_policy ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?options:options ->
  ?universe:Lattice_spice.Defects.t list ->
  Lattice_core.Grid.t ->
  target:Lattice_boolfn.Truthtable.t ->
  report
