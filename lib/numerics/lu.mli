(** LU decomposition with partial pivoting and linear solves.

    This is the workhorse behind every Newton iteration of the circuit
    simulator: the MNA Jacobian is factored once per iteration and solved
    against the residual. *)

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

(** [solve_in_place f b] overwrites [b] with the solution, avoiding an
    allocation. *)
val solve_in_place : factored -> Vec.t -> unit

(** [solve_dense m b] is [solve (factor m) b]; convenient for one-shot
    systems. *)
val solve_dense : Matrix.t -> Vec.t -> Vec.t

(** [determinant f] is the determinant recovered from the factorization. *)
val determinant : factored -> float
