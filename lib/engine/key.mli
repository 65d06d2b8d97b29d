(** Content-addressed cache keys for simulation jobs.

    A key is a hex digest of everything that determines a job's result:
    the netlist's content — topology, instance names, exact parameter
    bits, every wave — combined with the analysis specification (solver
    options, evaluation time). Keys of jobs that could disagree are
    guaranteed distinct; equal keys mean the solver would produce the
    same results, up to the order of node rows (the engine stores
    solutions in first-mention order, see {!Engine.dc_op}). *)

(** [dc_op ?options ?time netlist] — key of a DC operating-point job.
    Defaults match {!Lattice_spice.Dcop.solve_diag}: default options,
    [time = 0].

    Version ["dcop-v2"]: the MD5 of the version tag, every solver
    option, [time], the netlist's memoized
    {!Lattice_spice.Netlist.wave_free_digest} and its voltage-source
    waves in element order ({!Lattice_spice.Netlist.add_vsource_waves}).
    Two keys are equal exactly when the options, the times and the
    netlists' {!Lattice_spice.Netlist.structural_digest}s are, so deck
    text and the built circuit it came from share keys. A netlist's
    input states share its wave-free digest, so each state hashes a few
    hundred bytes. The v1 keys hashed the structural digest instead:
    every key changed once with v2, and a store written with v1 keys
    is never read. *)
val dc_op :
  ?options:Lattice_spice.Dcop.options -> ?time:float -> Lattice_spice.Netlist.t -> string
