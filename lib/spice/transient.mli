(** Fixed-step transient analysis.

    The initial condition is the DC operating point with sources at t = 0.
    Each step solves the nonlinear MNA system with capacitor companion
    models; the first step after DC always uses backward Euler (no history
    for the trapezoidal rule), subsequent steps use the selected
    integrator. On a Newton failure the step is retried with halved step
    size, up to 8 times.

    {!run_diag} returns a structured outcome carrying step statistics and,
    on failure, a {!Dcop.failure} diagnostic; the legacy {!run} is a thin
    wrapper raising [Dcop.Convergence_failure]. *)

type integrator = Backward_euler | Trapezoidal

type options = { integrator : integrator; dc : Dcop.options }

val default_options : options

type step_stats = {
  dc_strategy : Dcop.strategy option;
      (** winning fallback strategy of the initial operating point
          ([None] only when the OP itself failed) *)
  steps_taken : int;  (** accepted solver steps, halved micro-steps included *)
  halvings : int;  (** step-halving events across the run *)
  min_dt : float;  (** smallest step actually taken *)
  halving_events : (float * float) list;
      (** [(t, dt)] of every step whose Newton solve failed and was
          split, in chronological order — one entry per halving, so its
          length equals [halvings] *)
}

type result = {
  times : float array;
  node_names : string array;  (** recorded nodes, in request order *)
  voltages : float array array;  (** [voltages.(k)] is node [k]'s samples *)
  current_names : string array;  (** recorded voltage-source names *)
  currents : float array array;
      (** branch currents, positive into the source's + terminal *)
  newton_iterations_total : int;
      (** Newton iterations spent across every step, including iterations
          inside attempts that failed and were retried at a halved step. *)
  stats : step_stats;
}

(** Why and where a run stopped: the failing interval and the structured
    DC diagnostic (residual norm, worst nodes) of the step that exhausted
    its halvings. *)
type failure = {
  at_time : float;  (** start of the step that could not be taken *)
  dt : float;  (** its (already halved) step size *)
  newton_iterations_total : int;  (** iterations spent before giving up *)
  stats : step_stats;
  dc_failure : Dcop.failure;
}

(** [signal result name] fetches a recorded node waveform. Raises
    [Invalid_argument] naming the unknown signal and the recorded names. *)
val signal : result -> string -> float array

(** [branch_current result name] fetches a recorded source current. Raises
    [Invalid_argument] naming the unknown source and the recorded names. *)
val branch_current : result -> string -> float array

(** [run_diag ?options ?cancel netlist ~h ~t_stop ~record
    ?record_currents ()] simulates from 0 to [t_stop] with step [h] and
    never raises on convergence trouble: [Error failure] pinpoints the
    failing step and carries the residual diagnostics. [cancel] is
    checked at every step (and every Newton iteration inside it); a
    fired token raises {!Cancel.Cancelled} — a deadline aborts the run
    instead of being mistaken for a convergence failure.

    The time grid has uniform steps of [h], with the final sample pinned
    to exactly [t_stop]. When [t_stop] is not an integer multiple of [h]
    (beyond 1e-6 relative tolerance) the grid gains one final partial
    step instead of silently rounding the duration. *)
val run_diag :
  ?options:options ->
  ?cancel:Cancel.t ->
  Netlist.t ->
  h:float ->
  t_stop:float ->
  record:string list ->
  ?record_currents:string list ->
  unit ->
  (result, failure) Stdlib.result

(** [run ?options netlist ~h ~t_stop ~record ?record_currents ()] is the
    legacy wrapper over {!run_diag}: returns the result alone and raises
    [Dcop.Convergence_failure] with the rendered diagnostic on failure. *)
val run :
  ?options:options ->
  Netlist.t ->
  h:float ->
  t_stop:float ->
  record:string list ->
  ?record_currents:string list ->
  unit ->
  result
