(** Dense vectors of floats.

    Thin wrappers around [float array] used throughout the numerical code.
    All binary operations require operands of equal length and raise
    [Invalid_argument] otherwise. *)

type t = float array

(** [zeros n] is the zero vector of length [n]. *)
val zeros : int -> t

(** [copy v] is a fresh copy of [v]. *)
val copy : t -> t

(** [dot a b] is the inner product of [a] and [b]. *)
val dot : t -> t -> float

(** [axpy alpha x y] overwrites [y] with [alpha *. x + y] in place. *)
val axpy : float -> t -> t -> unit

(** [scale alpha v] is a fresh vector [alpha *. v]. *)
val scale : float -> t -> t

(** [add a b] is the element-wise sum as a fresh vector. *)
val add : t -> t -> t

(** [sub a b] is the element-wise difference as a fresh vector. *)
val sub : t -> t -> t

(** [norm2 v] is the Euclidean norm of [v]. *)
val norm2 : t -> float

(** [norm_inf v] is the maximum absolute entry of [v] (0 for empty). *)
val norm_inf : t -> float

(** [linspace a b n] is [n >= 2] evenly spaced samples from [a] to [b]
    inclusive. *)
val linspace : float -> float -> int -> t
