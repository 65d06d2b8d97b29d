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
    factors an n x n system. Its pivot search takes 8 n{^2} bytes
    (32 MiB at the cap, 128 MiB for an AC sweep's 2n system) and its LU
    16 bytes per L+U entry, which the elimination order keeps at the
    matrix's own entries for a hub-shaped deck (2,047 spokes at the cap
    run an [.op] in about 0.1 s at a 43 MB peak) and which reaches
    n{^2} entries only when the fill is dense under any order (60,000
    random resistors among 2,047 nodes run an [.op] in about 18 s at a
    210 MB peak). *)

val parse : string -> (Ast.deck, Ast.error) result
