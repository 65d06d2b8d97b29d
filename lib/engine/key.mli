(** Content-addressed cache keys for simulation jobs.

    A key is a hex digest of everything that determines a job's result:
    the netlist's content — topology, instance names, exact parameter
    bits, every wave — combined with the analysis specification (solver
    options, evaluation time). Keys of jobs that could disagree are
    guaranteed distinct; equal keys mean the solver would produce the
    same results, up to the order of node rows (the engine stores
    solutions in first-mention order, see {!Engine.dc_op}). *)

val version : string
(** ["dcop-v3"], the tag every {!dc_op} key hashes first. The engine
    roots its persistent store at [<dir>/dcop-v3/], so a store written
    with other keys is never read and can be removed whole. *)

(** [dc_op ?options ?time netlist] — key of a DC operating-point job.
    Defaults match {!Lattice_spice.Dcop.solve_diag}: default options,
    [time = 0].

    The MD5 of {!version}, every solver option, [time], the netlist's memoized
    {!Lattice_spice.Netlist.wave_free_digest} and its voltage-source
    waves in element order ({!Lattice_spice.Netlist.add_vsource_waves}).
    Two keys are equal exactly when the options, the times and the
    netlists' {!Lattice_spice.Netlist.structural_digest}s are, so deck
    text and the built circuit it came from share keys. A netlist's
    input states share its wave-free digest, so each state hashes a few
    hundred bytes. Each version changed every key once: v1 hashed the
    structural digest, v2 also hashed the convergence-trace option, and
    v3 drops that option, which changed the diagnostics record that the
    store [Marshal]s. *)
val dc_op :
  ?options:Lattice_spice.Dcop.options -> ?time:float -> Lattice_spice.Netlist.t -> string
