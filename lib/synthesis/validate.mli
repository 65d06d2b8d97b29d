(** Semantic validation of assigned lattices against target functions. *)

(** [realizes grid target] is [true] when the lattice function of [grid]
    (path existence between the plates) equals [target] on every assignment.
    The grid may mention fewer variables than [target]; the comparison runs
    over [Truthtable.nvars target] inputs. *)
val realizes : Lattice_core.Grid.t -> Lattice_boolfn.Truthtable.t -> bool
