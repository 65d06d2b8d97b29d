(** Quine-McCluskey two-level minimization.

    Produces the prime implicants of a truth table and a (near-)minimal
    irredundant sum-of-products cover: essential primes first, then a greedy
    cover of the residue. Exact enough for the small control functions that
    get mapped onto switching lattices (the paper's examples have 3-4
    inputs); practical up to ~12 variables. *)

type implicant = {
  value : int;  (** fixed variable values (within [mask]-cleared positions) *)
  mask : int;  (** bits set where the implicant does not constrain the variable *)
}

(** [prime_implicants t] is the complete prime-implicant list of [t]. *)
val prime_implicants : Truthtable.t -> implicant list

(** [cover t] is an irredundant SOP cover of [t] built from essential prime
    implicants plus a greedy completion. The result evaluates exactly
    as [t]. *)
val cover : Truthtable.t -> Sop.t

(** [cube_of_implicant nvars imp] converts an implicant to a cube. *)
val cube_of_implicant : int -> implicant -> Cube.t
