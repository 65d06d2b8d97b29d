(** DC operating-point analysis: damped Newton-Raphson with gmin stepping
    and a source-stepping fallback, over the compiled sparse MNA stamp
    plan ({!Stamp_plan}).

    Two entry points compute the operating point: {!solve_diag} returns a
    structured [result] carrying per-strategy diagnostics (and, on
    failure, the residual norm and worst offending nodes), while the
    legacy {!solve} is a thin wrapper that raises
    [Convergence_failure]. *)

exception Convergence_failure of string

type options = {
  max_iterations : int;  (** Newton iterations per continuation step (default 200) *)
  abstol : float;  (** absolute voltage tolerance, V (default 1e-9) *)
  reltol : float;  (** relative tolerance (default 1e-6) *)
  gmin_final : float;  (** residual drain-source conductance, S (default 1e-12) *)
  gmin_steps : float list;  (** continuation ladder, largest first *)
  source_steps : int;  (** ramp points for the source-stepping fallback (default 10) *)
  damping : float;  (** max voltage change per Newton step, V (default 1.0) *)
}

val default_options : options

(** One rung of the fallback ladder, in the order {!solve_diag} tries
    them: plain Newton (at most 40 iterations, or [max_iterations] if
    fewer), gmin stepping, heavily damped plain Newton and gmin
    stepping, source stepping, damped source stepping, then the
    node-shunt continuation. *)
type strategy =
  | Plain
  | Gmin_stepping
  | Damped_plain
  | Damped_gmin
  | Source_stepping
  | Damped_source
  | Gshunt_ramp

val strategy_name : strategy -> string

type diagnostics = {
  strategy : strategy;  (** the rung that converged *)
  attempts : (strategy * int) list;
      (** every rung tried, in order, with the Newton iterations it
          spent — failed rungs included, the winning rung last *)
  newton_iterations : int;  (** total across all attempts *)
}

type failure = {
  message : string;  (** the last rung's failure message *)
  attempts : (strategy * int) list;
      (** the full failed ladder with per-rung Newton iterations *)
  residual_norm : float;
      (** inf-norm of the KCL residual (A) at the last Newton iterate *)
  worst_nodes : (string * float) list;
      (** up to 3 node names with the largest residual currents *)
}

val pp_failure : failure -> string
(** One-line rendering of a failure: message, ladder, residual, worst
    nodes. *)

val residual_report :
  plan:Stamp_plan.t ->
  ?time:float ->
  ?gmin:float ->
  ?gshunt:float ->
  ?source_scale:float ->
  ?caps:Mna.cap_companion option ->
  Netlist.t ->
  x:Lattice_numerics.Vec.t ->
  float * (string * float) list
(** [residual_report ~plan netlist ~x] evaluates the KCL residual
    [A(x) x - b(x)] of the nonlinear MNA system at [x] under the given
    stamping context and returns its inf-norm plus the three worst
    node names ranked by residual current — the structured
    payload of {!failure}. [plan] is the stamp plan compiled from (or
    rebound to) [netlist]; the report assembles on it and overwrites its
    matrix and RHS buffers, so call it between solves, never inside
    one. *)

(** [newton_into ~plan netlist ~options ~x0 ~dst ~time ~gmin ~source_scale
    ~caps] runs plain Newton at a fixed continuation point ([gshunt] adds
    a node-to-ground conductance, default 0) over [plan], the stamp plan
    compiled from [netlist], writing the solution into the caller-supplied
    [dst] (length = unknowns; may alias [x0]) and returning the number of
    Newton iterations spent; raises [Convergence_failure] if it does not
    converge. With a warm [plan] this performs no allocation at all — the
    transient inner loop runs on it. When it raises [Convergence_failure],
    [dst] holds the last Newton iterate, so callers can produce residual
    diagnostics at the failure point. [iter_count] is incremented once per
    iteration as it happens, so iterations spent in attempts that end in
    [Convergence_failure] are still counted. [cancel] is checked at every
    iteration boundary; a fired token raises {!Cancel.Cancelled} with the
    last iterate left in [dst]. *)
val newton_into :
  ?gshunt:float ->
  plan:Stamp_plan.t ->
  ?iter_count:int ref ->
  ?cancel:Cancel.t ->
  Netlist.t ->
  options:options ->
  x0:Lattice_numerics.Vec.t ->
  dst:Lattice_numerics.Vec.t ->
  time:float ->
  gmin:float ->
  source_scale:float ->
  caps:Mna.cap_companion option ->
  int

(** [solve_diag ?options ?plan ?x0 ?time ?cancel netlist] computes the
    operating point at [time] (default 0) and never raises on
    convergence trouble: [Ok (x, diagnostics)] tells which rung of the
    fallback ladder won and what each rung cost; [Error failure]
    carries the failed ladder, the residual norm and the worst
    offending nodes. [cancel] is checked at every Newton iteration and
    every ladder rung; a fired token raises {!Cancel.Cancelled} — a
    deadline is {e not} a convergence failure, so it aborts the whole
    ladder instead of escalating it.

    [x0] (default 0 V everywhere) is where the plain rung starts; every
    later rung starts from 0 V, as a solve without [x0] does. A node
    that OFF switches isolate has only a gmin-defined voltage, so a
    continuation from another start could settle it elsewhere.

    Without [plan] a fresh stamp plan is compiled for this solve. With
    [plan], the solve first {!Stamp_plan.rebind}s it to [netlist] — a
    plan compiled from any netlist that differs from [netlist] only in
    source waves (another input state of the same circuit, another
    [.dc] sweep point) — and starts from the plan's memo-guarded first
    factorization. The result, diagnostics included, is bit-identical
    to a solve without [plan]; only the compile and, when the matrix at
    x = 0 repeats, the pivot search and symbolic analysis are saved
    (see {!Stamp_plan.factor_and_solve}). A plan of any other structure
    raises [Invalid_argument]. *)
val solve_diag :
  ?options:options ->
  ?plan:Stamp_plan.t ->
  ?x0:Lattice_numerics.Vec.t ->
  ?time:float ->
  ?cancel:Cancel.t ->
  Netlist.t ->
  (Lattice_numerics.Vec.t * diagnostics, failure) result

(** [solve ?options ?plan ?x0 ?time netlist] is the legacy wrapper over
    {!solve_diag}: returns the solution vector alone and raises
    [Convergence_failure] (with the rendered {!failure}) if every
    strategy fails. *)
val solve :
  ?options:options ->
  ?plan:Stamp_plan.t ->
  ?x0:Lattice_numerics.Vec.t ->
  ?time:float ->
  ?cancel:Cancel.t ->
  Netlist.t ->
  Lattice_numerics.Vec.t
