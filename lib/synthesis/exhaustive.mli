(** Exhaustive search for minimum-size lattices of small functions.

    The paper's Fig 3b shows XOR3 on the minimum-size 3 x 3 lattice, found
    by the synthesis algorithms of its references [3], [4], [13]. This
    module provides the brute-force counterpart: enumerate every assignment
    of literals (optionally constants) to the sites of a candidate grid and
    keep the first one whose lattice function matches the target.

    Feasible for [nvars <= ~4] and [rows * cols <= ~12]: connectivity over
    all [2^(rows*cols)] conduction patterns is precomputed once, and each
    candidate costs one table lookup per input assignment with early exit. *)

type alphabet = Literals_only | Literals_and_constants

(** [find ~rows ~cols ?alphabet target] is the first [rows x cols] grid (in
    odometer order over sites) realizing [target], or [None]. Default
    alphabet: [Literals_only]. *)
val find :
  rows:int -> cols:int -> ?alphabet:alphabet -> Lattice_boolfn.Truthtable.t -> Lattice_core.Grid.t option

(** [find_with_pins ~rows ~cols ?alphabet ~pins target] additionally fixes
    the entries of some sites (row-major indices) — defect-aware mapping: a
    stuck-OFF switch is a pinned [Const false], a stuck-ON one a pinned
    [Const true], and the search works around them. *)
val find_with_pins :
  rows:int ->
  cols:int ->
  ?alphabet:alphabet ->
  pins:(int * Lattice_core.Grid.entry) list ->
  Lattice_boolfn.Truthtable.t ->
  Lattice_core.Grid.t option

(** [count_solutions ~rows ~cols ?alphabet ?limit target] counts realizing
    grids, stopping at [limit] if given. *)
val count_solutions :
  rows:int ->
  cols:int ->
  ?alphabet:alphabet ->
  ?limit:int ->
  Lattice_boolfn.Truthtable.t ->
  int

(** [minimal ?alphabet ?max_area target] tries candidate dimensions in
    order of increasing area (ties: fewer rows first) up to [max_area]
    (default 9) and returns the first hit with its dimensions. *)
val minimal :
  ?alphabet:alphabet -> ?max_area:int -> Lattice_boolfn.Truthtable.t -> (Lattice_core.Grid.t * int * int) option

(** [validate_circuit ?engine ?config ?dc grid ~target] checks the
    switch-level realization of [grid]: the nominal lattice circuit is
    built and DC-solved at every input state, and the output must be
    boolean-correct (the complement of [target], since the lattice is a
    pull-down network) against the [vdd/2] threshold. Convergence failure
    at any state counts as invalid. Requires [nvars <= 5].

    The [2^nvars] input states fan out over [engine]'s Domain pool
    (phase ["circuit-validate"]; without [engine], a fresh 1-domain one)
    and the DC solves go through its content-addressed cache — repeated
    validations of the same grid on one engine are cache hits. The
    verdict is identical at any domain count. *)
val validate_circuit :
  ?engine:Lattice_engine.Engine.t ->
  ?config:Lattice_spice.Lattice_circuit.config ->
  ?dc:Lattice_spice.Dcop.options ->
  Lattice_core.Grid.t ->
  target:Lattice_boolfn.Truthtable.t ->
  bool

(** [find_circuit_verified ~rows ~cols ?alphabet ?engine ?config ?dc ?pins
    target] is {!find_with_pins} with a circuit back-end check: the first
    grid (in odometer order) that both matches [target] logically {e and}
    passes {!validate_circuit}. Logically-correct candidates that fail at
    circuit level are skipped and the search continues. *)
val find_circuit_verified :
  rows:int ->
  cols:int ->
  ?alphabet:alphabet ->
  ?engine:Lattice_engine.Engine.t ->
  ?config:Lattice_spice.Lattice_circuit.config ->
  ?dc:Lattice_spice.Dcop.options ->
  ?pins:(int * Lattice_core.Grid.entry) list ->
  Lattice_boolfn.Truthtable.t ->
  Lattice_core.Grid.t option
