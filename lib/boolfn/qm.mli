(** Quine-McCluskey two-level minimization.

    Produces a (near-)minimal irredundant sum-of-products cover from the
    prime implicants of a truth table: essential primes first, then a
    greedy cover of the residue. Exact enough for the small control
    functions that get mapped onto switching lattices (the paper's
    examples have 3-4 inputs); practical up to ~12 variables. *)

(** [cover t] is an irredundant SOP cover of [t] built from essential prime
    implicants plus a greedy completion. The result evaluates exactly
    as [t]. *)
val cover : Truthtable.t -> Sop.t
