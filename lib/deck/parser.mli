(** Recursive-descent SPICE deck parser.

    Grammar subset (case-insensitive keywords, case-preserving names):
    element cards [R]/[C]/[V]/[I]/[M]/[X], sources [DC]/[PULSE]/[SIN]/
    [PWL] with an optional unit [AC 1] tag, [.model] NMOS/PMOS level 1
    and 3, hierarchical [.subckt]/[.ends] with [{param}] substitution
    flattened at parse time (instance [Xfoo] prefixes inner element
    names with [foo.] and internal nodes with [foo.]), analyses
    [.op]/[.dc]/[.tran]/[.ac dec], probes [.print]/[.probe], and
    [.end]. Everything else is a structured error.

    Validation is strict and total: card arity, positive R/C values,
    known models/subcircuits/parameters, probe and sweep targets
    resolved against the elaborated netlist. Errors carry the 1-based
    line and column of the offending token; no exception ever escapes
    {!parse}.

    Elaboration stops at the deck card that takes the netlist past 2048
    MNA unknowns or 65,536 elements, with an error at that card (for a
    subcircuit, the top-level X card that expands it). Nested X cards
    multiply a short deck's size at every level, and each analysis
    factors an n x n system whose pivot search and LU take up to
    24 n{^2} bytes when the fill is dense: 96 MiB at the cap, 384 MiB
    for an AC sweep's 2n system. *)

val parse : string -> (Ast.deck, Ast.error) result
