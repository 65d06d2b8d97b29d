(** Compositional lattice construction (the approach of the paper's
    reference [2], Bernasconi et al., "Composition of switching lattices").

    Lattices compose under AND and OR with isolating spacers:

    - [disjunction g1 g2]: pad both to equal height with always-ON rows
      (which preserve each lattice function: reaching the new bottom still
      requires crossing the old bottom row), then place them side by side
      separated by an always-OFF column. The spacer is what makes this
      exact — without it, paths weaving between the halves realize spurious
      products (e.g. two 3x1 columns side by side conduct under
      [x1 x3 x4 x6] with neither column complete).
    - [conjunction g1 g2]: pad both to equal width with always-OFF columns,
      then stack them with an always-ON row in between; the bridge row lets
      a path exit [g1] in any column and enter [g2] in any other, making
      the function exactly [f1 AND f2].

    Together with 1x1 literal lattices this compiles any negation-normal-form
    expression: [of_expr] pushes negations to the leaves (De Morgan, XOR
    expansion) and composes. The resulting lattices are larger than the
    dual-based synthesis of [Lattice_synthesis.Altun_riedel] but the
    construction is purely structural — no truth table is ever built — so it
    scales to many variables. *)

(** [of_expr e] compiles an expression to a lattice through its
    negation normal form. *)
val of_expr : Lattice_boolfn.Expr.t -> Grid.t
