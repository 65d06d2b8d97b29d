(** Fault analysis for switching lattices.

    The NANOxCOMP project the paper belongs to covers "logic synthesis and
    testing techniques for switching nano-crossbar arrays" (paper reference
    [1]); emerging-device lattices are defect-prone, so a realization flow
    needs a fault model and test generation. The natural fault model for a
    four-terminal switch is:

    - {e stuck-OFF}: the switch never conducts (open defect) — its site
      behaves as constant 0;
    - {e stuck-ON}: the switch always conducts (short defect) — constant 1.

    A fault is {e detectable} when the faulty lattice function differs from
    the fault-free one; a test vector for it is an input assignment on
    which they differ. [minimal_test_set] greedily covers all detectable
    faults with few vectors (single-fault assumption, as usual). *)

type kind = Stuck_off | Stuck_on

type fault = { row : int; col : int; kind : kind }

(** [detects grid fault vector] is [true] when the lattice with the fault
    injected (the site replaced by its constant) and the fault-free one
    disagree on [vector]. *)
val detects : Lattice_core.Grid.t -> fault -> int -> bool

type analysis = {
  total : int;
  detectable : int;
  undetectable : fault list;
  test_set : int list;  (** greedy-minimal vectors covering every detectable fault *)
}

(** [analyze grid] runs the full single-fault campaign: every site stuck
    OFF and stuck ON, each fault detectable when some assignment over
    [Grid.nvars grid] inputs tells the two lattices apart. *)
val analyze : Lattice_core.Grid.t -> analysis

(** [coverage grid ~vectors] is the fraction of detectable faults caught by
    the given vectors (1.0 when [vectors] is a complete test set). *)
val coverage : Lattice_core.Grid.t -> vectors:int list -> float

val fault_name : fault -> string
