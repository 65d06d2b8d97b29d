(** Zero-suppressed BDD of the irredundant-path family of an [m x n]
    lattice, built by Knuth-style frontier-based search over the cells in
    row-major order.

    The represented family is exactly the cell sets walked by
    {!Paths.iter_irredundant}: induced (chordless) top-to-bottom paths
    with a single top-row and a single bottom-row cell. The frontier
    state is the sliding window of the last [cols] decided cells
    (membership, component id, induced degree) plus which component owns
    the top and bottom endpoints; states are interned per level with
    canonical component renumbering, and a bottom-up pass applies the ZDD
    reduction (zero-suppression and node sharing). Node count is bounded
    by cells times distinct frontier states, so counting is cheap where
    explicit enumeration walks tens of millions of paths. *)

type t

(** Raised by {!count} / {!count_by_size} when a partial count exceeds
    [max_int] (native 63-bit arithmetic). *)
exception Overflow

(** [of_lattice ~rows ~cols] builds the ZDD over [rows * cols] variables
    (cell [r * cols + c] in row-major order). Raises [Invalid_argument]
    when a dimension is [< 1]. *)
val of_lattice : rows:int -> cols:int -> t

(** [count t] is the number of sets in the family — the Table I entry —
    by a single DP pass over the reduced nodes. *)
val count : t -> int

(** [count_by_size t] is the family histogram by set cardinality: entry
    [k] counts the sets with [k] cells, length [rows * cols + 1]. Memory
    is [O(nodes * rows * cols)]. *)
val count_by_size : t -> int array
