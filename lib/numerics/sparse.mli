(** Compressed-sparse-column matrices with a frozen pattern, plus a
    pattern-reusing sparse LU (KLU-style split).

    The intended workflow is the circuit-simulator one: the nonzero
    pattern of the MNA matrix is fixed by the netlist topology, so it is
    built {e once} (through {!Builder}), values are rewritten in place on
    every Newton iteration through precomputed {e slot} indices, and the
    factorization is split into an analysis ({!factorize}: pivot-order
    selection, symbolic fill-in, and the merged L+U layout with the map
    of A's slots into it) and a cheap numeric-only {!refactor} that
    eliminates in place over that frozen layout. The analysis runs once
    per stamp plan, not once per topology (a plan memoizes its first
    solve's pivot order), plus again whenever a frozen order fails: the
    repo benchmark's batch op, whose jobs each compile a plan, runs
    about 213.

    {b Elimination order.} {!Builder.compile} gives each pattern a
    fill-reducing order of its unknowns, once: greedy minimum degree on
    the graph of A + A{^T} with the diagonal ignored, each step
    eliminating the lowest-numbered unknown of least current degree and
    joining its remaining neighbours into a clique. Every factorization
    of the pattern eliminates the columns in that order, and the rows
    by partial pivoting among them; neither {!refactor} nor a fresh
    {!factorize} recomputes the order. On the Fig 11 XOR3 circuit it
    cuts L+U from 314 entries to 201, and a hub node's spokes go before
    the hub, so a hub deck keeps L+U at A's own entries instead of
    filling it densely.

    [refactor] and [solve_in_place] allocate nothing, which is what makes
    an allocation-free Newton inner loop possible upstream. *)

exception Singular of int
(** Raised when elimination hits a pivot below the absolute floor
    ([1e-300], matching {!Lu.Singular}); the payload is the column of
    the matrix being eliminated. *)

type pattern
(** The frozen nonzero structure of an [n * n] matrix. *)

type t = {
  pattern : pattern;
  values : float array;
      (** one value per structural nonzero, column-major; index with the
          slot numbers handed out by {!slot}. Safe to [Array.blit] into. *)
}

module Builder : sig
  type b

  val create : int -> b
  (** [create n] starts a pattern for an [n * n] matrix. *)

  val add : b -> int -> int -> unit
  (** [add b row col] reserves a structural nonzero; duplicates are
      merged. Raises [Invalid_argument] out of range. *)

  val compile : b -> pattern
  (** Freeze into a CSC pattern and compute its elimination order. The
      builder may be reused afterwards. *)
end

val nnz : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** Index into [values] of a reserved entry. Raises [Invalid_argument]
    if [(row, col)] was not reserved. *)

val create : pattern -> t
(** A zero matrix over a compiled pattern. *)

val add : t -> int -> int -> float -> unit
(** [add m row col v] accumulates into a reserved slot (hash lookup; use
    {!slot} ahead of time in hot loops). *)

val iteri : t -> (int -> int -> int -> float -> unit) -> unit
(** [iteri m f] calls [f slot row col value] for every structural
    nonzero. *)

(** {1 Pattern-reusing LU} *)

type lu
(** A sparse LU factorization: row permutation (partial pivoting chosen
    during {!factorize}, within the pattern's elimination order),
    fill-in pattern, the map of A's slots into it, and numeric values,
    L and U merged in one array. It keeps
    O(nnz(A) + nnz(L+U) + n) words, however many updates its
    elimination runs. All buffers are owned by the [lu] and reused by
    {!refactor}. *)

val factorize : t -> lu
(** Full analysis + numeric factorization of the matrix with rows and
    columns permuted by its pattern's elimination order. The pivot rows
    are chosen by a dense partially-pivoted elimination on the
    scattered, permuted matrix ([8 n{^2}] bytes of scratch), then the
    fill-in pattern of L and U is computed symbolically for that fixed
    order and laid out in one array, and the numeric values are filled
    by {!refactor}'s kernel. Raises {!Singular}. Counts into the
    process-wide [numerics.lu_full_factorizations] counter. *)

val refactor : lu -> t -> unit
(** Numeric-only refactorization: the matrix must share the [pattern]
    the [lu] was analyzed for (physical equality); the elimination
    order, pivot rows and fill pattern are reused, only the values are
    recomputed, with the arithmetic of a left-looking elimination in its
    order, so the bits are that kernel's and a refactorization of the
    values {!factorize} saw reproduces its bits. Allocates nothing.
    Raises {!Singular} when a pivot drops below the floor (the caller
    should then redo {!factorize}, which re-picks pivots in the same
    elimination order); the factorization's values are then unusable
    until the next successful [refactor]. Raises [Invalid_argument] on a
    matrix of another pattern, or one whose [values] do not fit its
    pattern. *)

val solve_in_place : lu -> float array -> unit
(** Overwrite [b] with the solution of [A x = b], scattered back from
    the elimination order to the unknowns' own. Allocates nothing.
    Raises [Invalid_argument] unless [b] has one entry per unknown. *)

val lu_nnz : lu -> int * int
(** [(nnz L, nnz U)] including fill-in (L's unit diagonal excluded,
    U's diagonal included) — observability for benches and docs. *)
