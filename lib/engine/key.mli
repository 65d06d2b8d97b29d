(** Content-addressed cache keys for simulation jobs.

    A key is a hex digest of everything that determines a job's result:
    the structural digest of the netlist ({!Lattice_spice.Netlist.structural_digest}
    — topology, instance names, exact parameter bits) combined with the
    analysis specification (solver options, evaluation time). Keys of
    jobs that could disagree are guaranteed distinct; equal keys mean
    the solver would produce bit-identical results. *)

(** [dc_op ?options ?time netlist] — key of a DC operating-point job.
    Defaults match {!Lattice_spice.Dcop.solve_diag}: default options,
    [time = 0]. *)
val dc_op :
  ?options:Lattice_spice.Dcop.options -> ?time:float -> Lattice_spice.Netlist.t -> string

(** [dc_options_digest options] — digest of just the solver options
    (every tolerance, the continuation ladder, the convergence-trace flag). *)
val dc_options_digest : Lattice_spice.Dcop.options -> string

(** [custom parts] — generic key for non-circuit jobs (device sweeps,
    derived analyses): digest of the tagged parts in order. *)
val custom : [ `S of string | `F of float | `I of int ] list -> string
