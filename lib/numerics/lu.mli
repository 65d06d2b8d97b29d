(** Dense LU decomposition with partial pivoting and linear solves.

    {!Optimize} is its one production caller: each Levenberg-Marquardt
    step factors the damped normal equations. Circuit simulation never
    comes here; every Newton iteration factors its MNA system with the
    sparse LU in {!Sparse}. *)

exception Singular of int
(** Raised when no usable pivot is found; the payload is the elimination
    column at which the factorization broke down. *)

type factored
(** An LU factorization (pivoted, stored compactly). *)

(** [factor m] factors a square matrix. Raises [Singular] if a pivot falls
    below an absolute threshold of [1e-300], and [Invalid_argument] if [m] is
    not square. [m] itself is not modified. *)
val factor : Matrix.t -> factored

(** [solve f b] solves [A x = b] for the matrix [A] that produced [f];
    [b] is not modified. *)
val solve : factored -> Vec.t -> Vec.t
