(** Exhaustive search for minimum-size lattices of small functions.

    The paper's Fig 3b shows XOR3 on the minimum-size 3 x 3 lattice, found
    by the synthesis algorithms of its references [3], [4], [13]. This
    module provides the exact counterpart: walk the assignments of literals
    (optionally constants) to the sites of a candidate grid in odometer
    order and keep the first one whose lattice function matches the target.

    The walk is a branch and bound, and the bound is exact. Top-to-bottom
    connectivity is monotone in the set of ON switches, so before choosing
    site [k] the search looks up, for every input, the connectivity of the
    sites chosen so far with sites [k..n-1] all ON and all OFF. If an input
    the target needs to conduct is blocked even with every free site ON, or
    an input the target needs blocked conducts even with every free site
    OFF, no completion realizes the target and the subtree is skipped. The
    odometer order is unchanged and only subtrees without a hit are
    skipped, so every function here returns the grids and counts that the
    unpruned odometer gives (the test suite keeps that odometer as its
    oracle).

    Cost therefore follows the feasible subtrees rather than
    [alphabet^sites]: the 2 x 4 maj3 remap around a stuck-ON switch at
    (1,0) visits 6,070 nodes where the unpruned odometer visits 1,801,997.
    Each search adds its visited-node count to the [synthesis.search_nodes]
    counter once, when it ends.

    Limits: [nvars <= 6] and [rows * cols <= 20]. Entry values are kept as
    one bool per input assignment, so all 64 assignments of a 6-variable
    target are checked (an [int] bit mask cannot hold assignment 63).
    Connectivity over all [2^(rows*cols)] conduction patterns is
    precomputed once per search. *)

type alphabet = Literals_only | Literals_and_constants

(** [find ~rows ~cols ?alphabet target] is the first [rows x cols] grid (in
    odometer order over sites) realizing [target], or [None]. Default
    alphabet: [Literals_only]. *)
val find :
  rows:int -> cols:int -> ?alphabet:alphabet -> Lattice_boolfn.Truthtable.t -> Lattice_core.Grid.t option

(** [find_with_pins ~rows ~cols ?alphabet ~pins target] additionally fixes
    the entries of some sites (row-major indices) — defect-aware mapping: a
    stuck-OFF switch is a pinned [Const false], a stuck-ON one a pinned
    [Const true], and the search works around them. Raises
    [Invalid_argument] for a pin outside the grid, two pins on one site, or
    a pinned literal of a variable the target does not have. *)
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
    built once and DC-solved at every input state, and the output must
    be boolean-correct (the complement of [target], since the lattice is
    a pull-down network) against the [vdd/2] threshold. Convergence
    failure at any state counts as invalid; the check stops at the first
    state that fails. Requires [nvars <= 5].

    The check is one job on [engine]'s Domain pool (phase
    ["circuit-validate"]; without [engine], a fresh 1-domain one): its
    states share one solve workspace through
    {!Lattice_engine.Engine.lattice_output}, which cannot be split
    across domains. The DC solves go through the engine's
    content-addressed cache — repeated validations of the same grid on
    one engine are cache hits. The verdict is identical at any domain
    count. *)
val validate_circuit :
  ?engine:Lattice_engine.Engine.t ->
  ?config:Lattice_spice.Lattice_circuit.config ->
  ?dc:Lattice_spice.Dcop.options ->
  Lattice_core.Grid.t ->
  target:Lattice_boolfn.Truthtable.t ->
  bool
