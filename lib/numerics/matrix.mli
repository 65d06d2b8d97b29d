(** Dense row-major matrices of floats.

    The representation is a flat [float array] with explicit row and column
    counts, which keeps the circuit-simulator inner loops allocation-free. *)

type t = {
  rows : int;
  cols : int;
  data : float array;  (** row-major, [data.(r * cols + c)] *)
}

(** [create rows cols] is a zero matrix. *)
val create : int -> int -> t

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [get m r c] reads entry [(r, c)]. No bounds checking beyond the
    underlying array's. *)
val get : t -> int -> int -> float

(** [set m r c x] writes entry [(r, c)]. *)
val set : t -> int -> int -> float -> unit

(** [add_to m r c x] adds [x] to entry [(r, c)]; the MNA stamping
    primitive. *)
val add_to : t -> int -> int -> float -> unit

(** [mat_vec m v] is the product [m * v] as a fresh vector. *)
val mat_vec : t -> Vec.t -> Vec.t

(** [mat_mul a b] is the product [a * b] as a fresh matrix. *)
val mat_mul : t -> t -> t

(** [transpose m] is a fresh transpose. *)
val transpose : t -> t
