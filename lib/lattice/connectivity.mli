(** Top-plate to bottom-plate connectivity of a lattice under a conduction
    pattern.

    This is the semantic ground truth of the lattice model: the lattice
    function evaluates to 1 exactly when the ON switches form a path from the
    top plate to the bottom plate (paper Section II). Two interchangeable
    kernels are provided — breadth-first search and union-find — which the
    test suite checks against each other (an ablation DESIGN.md calls out). *)

(** [connected_bfs ~rows ~cols on] is [true] when some top-row site with
    [on.(site)] reaches a bottom-row ON site through 4-adjacent ON sites. *)
val connected_bfs : rows:int -> cols:int -> bool array -> bool

(** [connected_union_find ~rows ~cols on] computes the same predicate with a
    union-find over ON sites plus two virtual plate nodes. *)
val connected_union_find : rows:int -> cols:int -> bool array -> bool

(** [eval grid assignment] evaluates the lattice function of an assigned
    grid at a variable-bitmask assignment, with {!connected_bfs}. *)
val eval : Grid.t -> int -> bool

(** [table_of_patterns ~rows ~cols] precomputes connectivity for all
    [2^(rows*cols)] conduction patterns (requires [rows * cols <= 20]);
    index the result by the pattern bitmask (site [i] ON = bit [i]). Used by
    the exhaustive synthesizer where millions of grids are screened. *)
val table_of_patterns : rows:int -> cols:int -> Bytes.t
