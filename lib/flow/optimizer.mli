(** Automated design tool for switching lattices (paper Section VI-A:
    "developing an automated design tool for switching lattices performing
    performance optimization. With given area, power, delay, and energy
    specifications, the tool would come up with optimized solutions").

    For a target Boolean function the tool
    + generates candidate lattices (dual-based synthesis of the function
      and of its complement — the latter with an inverted output — plus an
      exhaustive minimum-size search when small enough),
    + evaluates area, worst-case delay and mean static power, analytically
      by default or through the SPICE engine on request, and
    + ranks the candidates against a user specification.

    The circuit template is the paper's: resistor pull-up, four-terminal
    switch pull-down (output inverted), VDD = 1.2 V. *)

type implementation = {
  grid : Lattice_core.Grid.t;
  inverted : bool;
      (** [true] when the lattice realizes the complement, so the circuit's
          (already inverted) output equals the target itself *)
  method_name : string;  (** e.g. ["dual-based"], ["exhaustive"] *)
}

type metrics = {
  area : int;  (** switches *)
  delay : float;  (** worst of rise/fall, s *)
  rise : float;
  fall : float;
  static_power : float;  (** mean over all input states, W *)
  from_spice : bool;
}

type evaluated = {
  implementation : implementation;
  metrics : metrics;
  feasible : bool;  (** meets every bound of the spec *)
  score : float;  (** lower is better *)
}

(** A candidate is feasible when its area is at most [max_area]. Its
    score is the sum of its area, delay and static power, each divided
    by the best candidate's, the power term weighted by
    [weight_power]. *)
type spec = { max_area : int option; weight_power : float }

(** No bound; equal weights. *)
val default_spec : spec

(** [estimate impl] computes analytic metrics from the switch
    on-conductance, the plate capacitances and the truth-table duty
    factor, for the {!Lattice_spice.Lattice_circuit.default_config}
    circuit. *)
val estimate : implementation -> metrics

(** [optimize ?spec ?use_spice ?expr target] generates, evaluates and
    ranks the candidates: the dual-based lattices of [target] and of its
    complement (output inverted), the exhaustive search's up to area 6,
    and, when [expr] is given, the composition of [expr]
    ([Lattice_core.Compose]). Feasible candidates come first, each
    group sorted by score. All candidates are validated to realize
    [target] (with output inversion accounted for). *)
val optimize :
  ?spec:spec ->
  ?use_spice:bool ->
  ?expr:Lattice_boolfn.Expr.t ->
  Lattice_boolfn.Truthtable.t ->
  evaluated list

(** [describe e ~names] renders one candidate for the CLI. *)
val describe : evaluated -> names:(int -> string) -> string
