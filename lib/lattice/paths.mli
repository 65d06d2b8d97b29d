(** Enumeration of the irredundant products of a lattice function.

    A product of the [m x n] lattice function corresponds to a top-to-bottom
    path of switches; the function is the sum of the products that survive
    absorption (paper Fig 2c: redundant paths such as [x3 x2 x1 x4 x7] are
    eliminated by [x1 x4 x7]).

    A path's product is irredundant exactly when
    - the path touches row 0 only at its start and row [m-1] only at its
      end, and
    - the path is chordless (no two non-consecutive path cells are
      adjacent),
    because any violation exhibits a strictly smaller top-bottom path inside
    the product's cell set, and conversely a chordless path is the only
    top-bottom path inside its own cell set. [iter_irredundant] walks
    exactly these paths by DFS with both conditions as pruning rules;
    [irredundant_sets_brute] recomputes the products from the definition
    (all simple top-bottom paths, then absorption) as a cross-check. *)

(** [iter_irredundant ~rows ~cols f] calls [f] once per irredundant path
    with the path's cells in order from the top row to the bottom row
    (row-major site indices). The array passed to [f] is reused; copy it to
    retain it. *)
val iter_irredundant : rows:int -> cols:int -> (int array -> unit) -> unit

(** [count_irredundant ~rows ~cols] is the number of irredundant paths —
    the entry of paper Table I — without materializing them. Below the
    measured crossover (both dims < 8) it walks the
    DFS enumeration, which beats the ZDD's node-table setup on small
    lattices (bench: enum/zdd ratio 0.32 at 7x7); at and above it the
    count runs on the {!Zdd} of the family (polynomial-ish in the
    lattice size; the 9 x 9 entry that enumeration walks in seconds
    counts in milliseconds). Raises [Zdd.Overflow] past [max_int] on
    the ZDD side. [count_irredundant_enum]/[count_irredundant_zdd] pin
    a backend explicitly — the parity tests hold them equal at the
    crossover boundary, and the bench measures them against each
    other. *)
val count_irredundant : rows:int -> cols:int -> int

val count_irredundant_enum : rows:int -> cols:int -> int

val count_irredundant_zdd : rows:int -> cols:int -> int

(** [irredundant_sets_brute ~rows ~cols] enumerates every simple top-bottom
    path, collects the distinct cell sets, and removes the ones that
    strictly contain another. Exponential; intended for cross-checking small
    lattices (say up to 4 x 4). The sets are sorted cell lists. *)
val irredundant_sets_brute : rows:int -> cols:int -> int list list

(** [length_histogram ~rows ~cols] counts irredundant products by literal
    count: entry [k] is the number of products with [k] literals (index 0
    unused for [rows >= 1]). Quantifies the paper's remark that lattice
    functions contain "a wide range of functions with different number of
    products": e.g. the 3 x 3 function has 3 products of size 3, 4 of size
    4 and 2 of size 5. The histogram length is [rows * cols + 1].
    Backend auto-selected like {!count_irredundant}. *)
val length_histogram : rows:int -> cols:int -> int array
