(** Content-addressed cache keys for simulation jobs.

    A key is a hex digest of everything that determines a job's result:
    the netlist's content — topology, instance names, exact parameter
    bits, every wave — combined with the analysis specification (solver
    options, evaluation time). Keys of jobs that could disagree are
    guaranteed distinct; equal keys mean the solver would produce the
    same results, up to the order of node rows (the engine stores
    solutions in first-mention order, see {!Engine.dc_op}). *)

val version : string
(** ["dcop-v5"], the tag every {!dc_op} key hashes first. The engine
    roots its persistent store at [<dir>/dcop-v5/], so a store written
    with other keys is never read and can be removed whole. *)

(** [dc_op ?options ?seed netlist] — key of a DC operating-point job at
    [time = 0]. Defaults match {!Lattice_spice.Dcop.solve_diag}: default
    options, no start point. [seed] is the key of the solve
    whose solution the job's plain Newton rung starts from (the nominal
    circuit's, for a Monte-Carlo die or a defect sample): the start
    point changes the last bits of the answer, so a seeded job and an
    unseeded job of one netlist never share a key, and two seeds give
    two keys.

    The MD5 of {!version}, every solver option, the time 0, the seed's key
    if any, the netlist's memoized
    {!Lattice_spice.Netlist.wave_free_digest} and its voltage-source
    waves in element order ({!Lattice_spice.Netlist.add_vsource_waves}).
    Two keys are equal exactly when the options, the seeds
    and the netlists' {!Lattice_spice.Netlist.structural_digest}s are,
    so deck text and the built circuit it came from share keys. A
    netlist's input states share its wave-free digest, so each state
    hashes a few hundred bytes. Each version changed every key once: v1
    hashed the structural digest, v2 also hashed the convergence-trace
    option, v3 dropped that option, which changed the diagnostics record
    that the store [Marshal]s, v4 came with the budgeted fallback
    ladder and seeded solves, which change solution bits and the order
    of the strategies the diagnostics name, and v5 with the sparse LU's
    minimum-degree elimination order, which changes solution bits at
    the rounding level. *)
val dc_op :
  ?options:Lattice_spice.Dcop.options ->
  ?seed:string ->
  Lattice_spice.Netlist.t ->
  string
