(** Small-signal AC analysis.

    The paper's Section VI-A plans analyses of "delay (maximum frequency),
    phase margin". This module linearizes the circuit at its DC operating
    point (MOSFETs become their [gm]/[gds] companions), replaces every
    capacitor by its admittance [j w C], applies a unit AC excitation to
    one voltage source and solves the complex MNA system
    [(G + j B) x = b] over a frequency sweep. The complex system is solved
    as the equivalent real block system [[G, -B; B, G]]. The augmented
    sparse pattern and its symbolic analysis are built once per sweep;
    each frequency only rewrites the [B] slots and runs a numeric-only
    refactorization.

    Measurements on the transfer function: the -3 dB corner ([f_3db], the
    maximum-frequency proxy) and the phase at any frequency. *)

type point = {
  freq_hz : float;
  magnitude : float;  (** |V(out)| per volt of excitation *)
  phase_deg : float;  (** in (-180, 180] *)
}

type response = {
  points : point list;
  dc_gain : float;  (** magnitude of the lowest swept frequency *)
}

(** [sweep netlist ~source ~output ~f_start ~f_stop ~points_per_decade]
    runs the sweep (log-spaced). [source] names the excited voltage
    source (its DC value sets the operating point; the AC excitation is
    1 V), [output] the observed node. Raises [Invalid_argument] for
    unknown names, [Dcop.Convergence_failure] if the operating point
    fails. *)
val sweep :
  Netlist.t ->
  source:string ->
  output:string ->
  f_start:float ->
  f_stop:float ->
  points_per_decade:int ->
  response

(** [solver netlist plan ~x_op] is the per-frequency solve {!sweep}
    runs, with [plan] compiled from [netlist]: it linearizes the circuit
    at [x_op] once, then each [solve ~w ~source_row] returns the solution
    of the augmented system [[G, -B; B, G]] x = e_source_row at angular
    frequency [w] (real parts in [0, n), imaginary parts in [n, 2n)).
    The returned array is overwritten by the next call. *)
val solver :
  Netlist.t ->
  Stamp_plan.t ->
  x_op:Lattice_numerics.Vec.t ->
  w:float ->
  source_row:int ->
  float array

(** [f_3db response] is the first frequency at which the magnitude drops
    below [dc_gain / sqrt 2], interpolated; [None] if it never does. *)
val f_3db : response -> float option

(** [phase_at response f] interpolates the phase at [f], degrees. *)
val phase_at : response -> float -> float

(** [magnitude_at response f] interpolates the magnitude at [f]. *)
val magnitude_at : response -> float -> float
