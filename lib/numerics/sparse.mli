(** Compressed-sparse-column matrices with a frozen pattern, plus a
    pattern-reusing sparse LU (KLU-style split).

    The intended workflow is the circuit-simulator one: the nonzero
    pattern of the MNA matrix is fixed by the netlist topology, so it is
    built {e once} (through {!Builder}), values are rewritten in place on
    every Newton iteration through precomputed {e slot} indices, and the
    factorization is split into a one-time analysis ({!factorize}:
    pivot-order selection plus symbolic fill-in computation) and a cheap
    numeric-only {!refactor} that reuses the frozen elimination pattern.

    [refactor] and [solve_in_place] allocate nothing, which is what makes
    an allocation-free Newton inner loop possible upstream. *)

exception Singular of int
(** Raised when elimination hits a pivot below the absolute floor
    ([1e-300], matching {!Lu.Singular}); the payload is the elimination
    column. *)

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
  (** Freeze into a CSC pattern. The builder may be reused afterwards. *)
end

val dim : pattern -> int
val nnz : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** Index into [values] of a reserved entry. Raises [Invalid_argument]
    if [(row, col)] was not reserved. *)

val mem : pattern -> row:int -> col:int -> bool

val create : pattern -> t
(** A zero matrix over a compiled pattern. *)

val add : t -> int -> int -> float -> unit
(** [add m row col v] accumulates into a reserved slot (hash lookup; use
    {!slot} ahead of time in hot loops). *)

val get : t -> int -> int -> float
(** 0 outside the pattern. *)

val iteri : t -> (int -> int -> int -> float -> unit) -> unit
(** [iteri m f] calls [f slot row col value] for every structural
    nonzero. *)

val of_matrix : Matrix.t -> t
(** Pattern from the nonzero entries of a dense matrix (test helper). *)

val to_matrix : t -> Matrix.t

(** {1 Pattern-reusing LU} *)

type lu
(** A sparse LU factorization: row permutation (partial pivoting chosen
    during {!factorize}), fill-in pattern, and numeric values. All
    buffers are owned by the [lu] and reused by {!refactor}. *)

val factorize : t -> lu
(** Full analysis + numeric factorization. The pivot order is chosen by
    a dense partially-pivoted elimination on the scattered matrix (run
    once per topology), then the fill-in pattern of L and U is computed
    symbolically for that fixed order, and the numeric values are filled
    by {!refactor}. Raises {!Singular}. Counts into the process-wide
    [numerics.lu_full_factorizations] counter. *)

val refactor : lu -> t -> unit
(** Numeric-only refactorization: the matrix must share the [pattern]
    the [lu] was analyzed for (physical equality); the pivot order and
    fill pattern are reused, only the values are recomputed. Allocates
    nothing. Raises {!Singular} when a pivot drops below the floor (the
    caller should then redo {!factorize}, which re-picks pivots). *)

val solve_in_place : lu -> float array -> unit
(** Overwrite [b] with the solution of [A x = b]. Allocates nothing. *)

val solve : lu -> float array -> float array
(** Allocating convenience wrapper over {!solve_in_place}. *)

val lu_nnz : lu -> int * int
(** [(nnz L, nnz U)] including fill-in (L's unit diagonal excluded,
    U's diagonal included) — observability for benches and docs. *)
