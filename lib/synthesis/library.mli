(** A small library of known lattice realizations used by the paper.

    Each grid is validated against its target function by the test suite;
    the XOR3 lattices correspond to paper Fig 3 (variable order
    [a = 0], [b = 1], [c = 2]). *)

(** Paper Fig 3b: XOR3 on the minimum-size 3 x 3 lattice (uses a constant-1
    site, as in the paper's figure). Found by [Exhaustive.find]. *)
val xor3_3x3 : Lattice_core.Grid.t

(** Paper Fig 3a: XOR3 on a 3 x 4 lattice using literals only. *)
val xor3_3x4 : Lattice_core.Grid.t

(** XNOR3 (complement of XOR3) on 3 x 3 — obtained from [xor3_3x3] by
    complementing the [c] literals ([XNOR3 (a,b,c) = XOR3 (a,b,c')]). Used
    as the pull-up network of the complementary XOR3 circuit. *)
val xnor3_3x3 : Lattice_core.Grid.t

(** 3-input majority (the classic lattice-friendly function) on 2 x 3. *)
val maj3_2x3 : Lattice_core.Grid.t

(** The XOR3 truth table (parity of 3). *)
val xor3 : Lattice_boolfn.Truthtable.t

(** Variable names [a], [b], [c] for rendering the grids above. *)
val abc_names : int -> string
