(** Parallel batch-simulation engine, hardened for faulty jobs.

    Every heavy workload in this reproduction is a fan-out of
    independent circuit/device simulations: Monte-Carlo dies, fault
    -campaign samples, I-V sweep points, exhaustive-search circuit
    validations. The engine runs those jobs on a {!Pool} of OCaml 5
    Domains, memoizes repeated DC operating points in a
    content-addressed {!Cache} (optionally backed by a crash-safe
    on-disk {!Store}), and keeps lightweight telemetry (jobs, cache and
    store traffic, Newton iterations, retries/timeouts/failures, wall
    time per phase).

    {2 Telemetry}

    Each event is counted once, in the engine's, the cache's or the
    store's {!Lattice_obs.Metrics.Scope} (registry prefixes ["engine"],
    ["engine.cache"], ["engine.store"]); {!telemetry}, {!summary} and
    {!counters} read them. Solves, cache hits and retries also count in
    the calling thread's {!Lattice_obs.Metrics.Request}.

    {2 Fault tolerance}

    {!run_jobs} is the resilient dispatch path: every job runs under its
    own {!Lattice_spice.Cancel} deadline token, exceptions are contained
    per job ({!Pool.outcome}), and jobs classified as failed (or, with a
    deadline policy, timed out, or [Done] values the caller deems
    retryable) are re-dispatched up to [policy.attempts] times with the
    deadline budget growing by {!backoff} each attempt. No exception from
    a job ever escapes [run_jobs].

    Every flow fans out through {!run_jobs} ({!map} is [run_jobs] plus
    an unwrap); a flow called without an engine runs on {!or_fresh}'s
    1-domain engine, under the same classify-never-raise rule.

    {2 Determinism contract}

    [map]/[run_jobs] merge results by job index and jobs must be pure
    in their index, so a 4-domain run is bit-identical to the 1-domain
    run. Randomized workloads get per-job RNG streams from
    {!sample_rng} (seed-splitting by hash of [seed, index]) instead of
    one sequential stream. Cached DC results replay the original solver
    output — solution vector {e and} diagnostics, including Newton
    iteration counts — so accounting (e.g. a fault campaign's
    per-sample Newton budget) is identical on warm and cold caches,
    and (via the persistent store) across processes. *)

type t

(** [create ?domains ?store_dir ()] — [domains] defaults to
    [FTL_DOMAINS] when set, else [Domain.recommended_domain_count ()];
    one domain is the degenerate serial engine. The DC-result cache
    holds 4096 entries under second-chance eviction
    ({!Cache.Second_chance}).

    [store_dir] roots the crash-safe persistent DC-result store
    ({!Store}): it defaults to the [FTL_CACHE_DIR] environment variable
    when that is set non-empty, and passing [Some ""] explicitly
    disables the store even then. With a store, in-memory misses fall
    back to disk and fresh results are spilled through, so a second
    process re-running an identical campaign starts warm. *)
val create : ?domains:int -> ?store_dir:string -> unit -> t

(** [or_fresh engine] is [e] for [Some e], else
    [create ~domains:1 ~store_dir:"" ()]: one domain, no persistent
    store, no [FTL_*] variable read — the engine a flow runs on when
    its caller passes none. *)
val or_fresh : t option -> t

val domains : t -> int

val store_dir : t -> string option
(** The persistent store's root directory, when one is wired. *)

(** [sample_rng ~seed ~index] is the RNG stream of sample [index]:
    seeded by a hash of [(seed, index)], so the stream is a function of
    the pair alone — sample [k] draws the same perturbations whether or
    not samples [0 .. k-1] ran, and in whatever order the pool
    scheduled them. *)
val sample_rng : seed:int -> index:int -> Random.State.t

(** [map e ?phase ~n f] is {!run_jobs} over [f] with the default
    policy, unwrapped: the results merged by index when every job is
    [Done]. Otherwise it raises for the lowest-index job that is not:
    [Failure] carrying the job exception's printed form
    ({!Pool.exn_info}), or {!Lattice_spice.Cancel.Cancelled} for a job
    that raised it. Every job runs even when one fails. *)
val map : t -> ?phase:string -> n:int -> (int -> 'a) -> 'a array

(** Retry/deadline policy for {!run_jobs}. [deadline_s] is the per-job
    wall-clock budget of the {e first} attempt ([None]: no per-job
    deadline); [attempts] the total number of tries per job (default 1
    = no retries). *)
type job_policy = { deadline_s : float option; attempts : int }

val default_policy : job_policy
(** [{ deadline_s = None; attempts = 1 }] *)

val backoff : float
(** [2.0]: attempt [k] runs under [deadline_s *. backoff ** k] —
    retrying a timed-out solve under the same budget would just time
    out again. *)

(** [run_jobs e ?policy ?cancel ?phase ?retryable ~n f] — fault
    -isolated, retrying dispatch of [f] over [0 .. n-1].

    Each job invocation receives its [attempt] number (0-based) and a
    [cancel] token combining the batch token with the per-attempt
    deadline from [policy]; the job must thread that token into its
    solver calls ({!dc_op}'s [?cancel], [Dcop.solve_diag], …) for
    deadlines to bite. Outcomes are classified per job ({!Pool.outcome})
    and jobs are re-dispatched — [Failed] always, [Timed_out] when a
    per-job deadline policy is set, [Done v] when [retryable v] (e.g. a
    non-convergent sample worth a bigger Newton budget) — until they
    settle or [policy.attempts] is exhausted. The batch [cancel] token
    stops everything: remaining jobs finish as [Cancelled]. With
    [phase], the call's elapsed time (monotonic clock, so a wall-clock
    step cannot skew it) accrues to that phase and opens a
    span of that name (cat ["engine"]) whenever tracing or the flight
    ring records.

    Telemetry: every dispatched attempt counts into [jobs]; each
    re-dispatch counts into [retries]; [timeouts]/[job_failures] count
    {e final} outcomes only. *)
val run_jobs :
  t ->
  ?policy:job_policy ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?phase:string ->
  ?retryable:('a -> bool) ->
  n:int ->
  (attempt:int -> cancel:Lattice_spice.Cancel.t -> int -> 'a) ->
  'a Pool.outcome array

(** A job-scoped solve workspace: the stamp plan shared by the DC
    solves of one circuit whose netlists differ only in source waves —
    one lattice circuit at each of its input states ({!lattice_output}),
    one deck at each [.dc] sweep point
    ({!Lattice_spice.Netlist.rebind_vsources}). The plan is
    compiled lazily by the first {!dc_op} that misses the cache, so a
    job whose solves all hit compiles nothing, and it lives exactly as
    long as the caller keeps the workspace: create one per job, never
    share one across jobs or domains (a plan runs one solve at a time).
    Results do not depend on it: see {!Lattice_spice.Dcop.solve_diag}. *)
type workspace

val workspace : unit -> workspace
(** An empty workspace; its plan is compiled on first use. *)

(** [dc_op e ?options ?cancel ?workspace netlist] is
    [Lattice_spice.Dcop.solve_diag ?options netlist] memoized under the
    content key {!Key.dc_op}. The returned solution vector is a private
    copy (callers may keep or mutate it), in [netlist]'s own node order.
    Cache and store entries hold it in canonical (first-mention) order
    ({!Lattice_spice.Netlist.to_canonical_order}), because netlists that
    share a key — a built circuit and its deck round trip — may number
    their nodes differently. A miss stores a canonical copy and returns
    the solver's own vector; a hit returns a copy mapped to the caller's
    numbering, so each node reads the value the first solve gave the node
    in the same place of the circuit. Hits replay the original diagnostics
    verbatim — from memory or from the persistent store. [cancel] is
    threaded into the solver; a cancelled solve raises
    {!Lattice_spice.Cancel.Cancelled} and caches nothing. A miss with
    [workspace] solves on the workspace's plan, compiling it from
    [netlist] if it has none yet; the result is bit-identical to a miss
    without one, and a [netlist] whose structure differs from the plan's
    raises [Invalid_argument]. Safe to call from inside [map]/[run_jobs]
    jobs on any domain. *)
val dc_op :
  t ->
  ?options:Lattice_spice.Dcop.options ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?workspace:workspace ->
  Lattice_spice.Netlist.t ->
  (Lattice_numerics.Vec.t * Lattice_spice.Dcop.diagnostics, Lattice_spice.Dcop.failure) result

(** [resident_dc_op e ?options netlist] is the memory-resident answer
    of {!dc_op}: on an in-memory cache hit it returns what [dc_op] would
    (a private copy in [netlist]'s node order, the original diagnostics)
    and counts the hit as [dc_op] does, in {!telemetry} and in the
    request the calling thread serves. On a miss it returns [None] and
    counts nothing. It never solves and never reads the persistent
    store. For a caller that answers a hit itself and sends a miss on
    to {!dc_op}, so the engine counts one lookup per request: the
    daemon answers a memory-resident [dc_op] on its reader thread. *)
val resident_dc_op :
  t ->
  ?options:Lattice_spice.Dcop.options ->
  Lattice_spice.Netlist.t ->
  (Lattice_numerics.Vec.t * Lattice_spice.Dcop.diagnostics, Lattice_spice.Dcop.failure) result
  option

(** The DC solutions of one nominal lattice circuit at its input
    states, each with its content key: the start points of the solves of
    its perturbed copies (Monte-Carlo dies, defect samples). Immutable
    once built, so the jobs of any domain may share one. *)
type seeds

(** [nominal_seeds e ?options ~cancel lc ~states] solves [lc] at input
    states [0 .. states - 1] as {!lattice_output} would (through the
    cache, on one {!workspace}, under [cancel]) and keeps each solution
    with its key. A state whose solve fails gets no seed. A fired
    [cancel] stops the solves; the states it left unsolved get no seed,
    and nothing is raised. Call it once per flow call, before the jobs
    that share it, so that start points depend neither on the domain
    count nor on the schedule. *)
val nominal_seeds :
  t ->
  ?options:Lattice_spice.Dcop.options ->
  cancel:Lattice_spice.Cancel.t ->
  Lattice_spice.Lattice_circuit.t ->
  states:int ->
  seeds

(** [lattice_output e ?options ?seeds lc] checks one lattice circuit at
    its input states: the returned function maps input state [m] to the
    DC voltage of [lc]'s output node and the solve's diagnostics, with
    the inputs driven by {!Lattice_spice.Lattice_circuit.state_stimulus}
    at [lc]'s own [vdd] (the stimulus [lc] was built with does not
    matter). The circuit is built once, by the caller; each call only
    rebinds the input drivers ({!Lattice_spice.Lattice_circuit.rebind})
    and goes through the cache on one {!workspace} owned by the
    function. So make one per job and keep it inside that job.

    Without [seeds], results equal a fresh build and {!dc_op} per state,
    bit for bit. With [seeds], the plain Newton rung of state [m] starts
    from the nominal solution at [m], mapped onto [lc] by node name and
    source name (a node the nominal circuit lacks starts at 0 V; the
    map is built once per call of [lattice_output]), and the solve is
    cached under {!Key.dc_op}[ ~seed] with the nominal solve's key. A
    state without a seed is solved as without [seeds]. How Monte-Carlo
    dies, campaign samples (seeded), repair re-verifications and circuit
    validation (unseeded) check a lattice at every input state. *)
val lattice_output :
  t ->
  ?options:Lattice_spice.Dcop.options ->
  ?seeds:seeds ->
  Lattice_spice.Lattice_circuit.t ->
  cancel:Lattice_spice.Cancel.t ->
  int ->
  (float * Lattice_spice.Dcop.diagnostics, Lattice_spice.Dcop.failure) result

type telemetry = {
  domains : int;
  jobs : int;  (** job attempts dispatched through {!map}/{!run_jobs} *)
  dc_solves : int;  (** actual (uncached) DC solver invocations *)
  cache : Cache.stats;  (** DC-result cache counters *)
  store : Store.stats option;  (** persistent-store counters, when wired *)
  newton_total : int;  (** Newton iterations spent in uncached solves *)
  newton_failed_rungs : int;
      (** the part of [newton_total] spent in ladder rungs that failed:
          every attempt but the winning one, all of a failed solve's *)
  retries : int;  (** job re-dispatches by {!run_jobs} *)
  timeouts : int;  (** jobs whose {e final} outcome was [Timed_out] *)
  job_failures : int;  (** jobs whose {e final} outcome was [Failed] *)
  phases : (string * float) list;  (** elapsed seconds per phase (monotonic), first-use order *)
}

val telemetry : t -> telemetry

val counters : t -> (string * int) list
(** The counts {!telemetry} reports, from each scope's snapshot
    (["engine.*"], ["engine.cache.*"], then any ["engine.store.*"]). *)

(** One-line rendering for CLI output, e.g.
    ["engine: 4 domains | 500 jobs | 3896 dc solves, cache 104/4000 hits
      (2.6%), 0 evictions | store 0/104 hits, 3896 writes, 0 corrupt |
      18234 newton iters (7120 in failed rungs) | 3 retries, 1 timeouts,
      2 failures | monte-carlo 1.23s"] (store and fault segments appear
    only when a store is wired / faults occurred). *)
val summary : t -> string
