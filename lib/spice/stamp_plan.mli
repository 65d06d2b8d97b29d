(** A netlist compiled into a sparse MNA stamping plan.

    [compile] walks the element list {e once}, resolves every node to its
    MNA row/column, reserves every matrix entry any element can ever
    touch in a frozen {!Lattice_numerics.Sparse.pattern}, and splits the
    stamps into three tiers:

    - {b constant} (resistor conductances, voltage-source incidence
      entries) — accumulated into a cached value array at compile time;
    - {b linear-per-solve} (gmin, the continuation shunt, capacitor
      companion conductances, source values at the solve's timepoint) —
      folded over the constant tier once per Newton {e solve} by
      {!set_linear};
    - {b nonlinear} (MOSFET companion models) — restamped on every
      Newton {e iteration} by {!assemble}, which just blits the cached
      linear tier and updates the MOSFET slots.

    All buffers (matrix values, RHS, iterate vectors, the sparse LU) are
    owned by the plan and reused, so {!assemble} + {!factor_and_solve}
    allocate nothing after the first factorization. A plan is therefore
    not reentrant: one Newton solve at a time per plan.

    {b Reuse across source waves.} Netlists that differ only in the
    waves of their independent sources (the input states of one lattice
    circuit, the points of a [.dc] sweep) share one plan through
    {!rebind}, which makes the plan compute exactly what a fresh
    {!compile} of the new netlist would, bit for bit. Two things make
    that exact: the waves enter only the per-solve RHS, and a solve's
    first pivot order is memoized keyed on the bitwise values of the
    matrix at x = 0 (see {!factor_and_solve}). *)

type t

val compile : Netlist.t -> t
(** Compile the netlist's current element list. The plan does not track
    later mutations of the netlist. Counts into the process-wide
    [spice.plan_compiles] counter. *)

val rebind : t -> Netlist.t -> unit
(** [rebind plan netlist] points the plan at [netlist]: it takes over
    the netlist's source waves and forgets the current factorization, so
    the next {!factor_and_solve} is a solve's first. Afterwards the plan
    behaves exactly like [compile netlist]. [netlist] must have the
    structure the plan was compiled from — the same elements in the same
    order (names, nodes, values, models), differing at most in the waves
    of independent sources (as {!Netlist.rebind_vsources} produces); any
    other netlist raises [Invalid_argument "Stamp_plan.rebind: ..."] and
    leaves the plan unchanged. Costs one pass over the elements; shared
    element records compare by physical equality. *)

val n : t -> int
(** Number of MNA unknowns. *)

val matrix : t -> Lattice_numerics.Sparse.t
(** The plan's matrix buffer (valid after {!assemble}); exposed for the
    AC sweep, which reads the assembled conductance pattern. *)

val rhs : t -> float array
(** The plan's RHS buffer: filled by {!assemble}, overwritten with the
    solution by {!factor_and_solve}. *)

val x_buffer : t -> float array
(** Plan-owned iterate buffer for allocation-free Newton loops. *)

val x_new_buffer : t -> float array

val set_linear :
  t ->
  time:float ->
  gmin:float ->
  gshunt:float ->
  source_scale:float ->
  caps:Mna.cap_companion option ->
  unit
(** Rebuild the cached linear tier (matrix values and RHS) for one
    Newton solve. Allocation-free. With {!assemble} it builds the
    system that [Mna.stamp], the dense assembly kept in
    [test/test_spice.ml] as this plan's oracle, builds. *)

val assemble : t -> x:float array -> unit
(** Load the cached linear tier into the matrix/RHS buffers and stamp
    the MOSFET companion models linearized at [x]. Allocation-free. *)

val factor_and_solve : t -> unit
(** Factor the assembled matrix and overwrite {!rhs} with the solution.
    The first call after {!compile} or {!rebind} takes its pivot order
    from the matrix the plan assembles at x = 0 under the current linear
    tier. That order is memoized: the full symbolic analysis
    ([Sparse.factorize]) runs only when those values differ, bit for
    bit, from the ones the plan's latest such analysis factored, and
    otherwise only the numbers are recomputed through the memo's order,
    which yields the bits [Sparse.factorize] would. The matrix at x = 0
    depends neither on the source waves nor on where the solve starts,
    so every DC solve on a plan after its first reuses the memo. A solve
    from [x0 = 0] factors exactly that matrix. A solve from any other
    start refactors its own first matrix through that order and runs a
    full analysis of its own matrix only when that refactorization
    raises [Singular]; a fresh plan does the same, so the bits never
    depend on the plan's history. Later calls reuse the elimination
    pattern (numeric-only refactorization) and fall back to a fresh
    analysis if the frozen pivot order goes stale. Raises
    [Lattice_numerics.Sparse.Singular] if the matrix is singular. *)

val lu_stats : t -> (int * int) option
(** [(nnz L, nnz U)] of the current factorization, if any. *)
