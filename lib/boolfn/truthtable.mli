(** Explicit truth tables for functions of up to 20 variables.

    Assignment [m] encodes variable [i] in bit [i] of [m]. *)

type t

(** [create nvars f] tabulates [f] over all [2^nvars] assignments. *)
val create : int -> (int -> bool) -> t

(** [nvars t] is the domain size. *)
val nvars : t -> int

(** [eval t m] reads entry [m]. *)
val eval : t -> int -> bool

(** [minterms t] lists the true assignments in increasing order. *)
val minterms : t -> int list

(** [count_ones t] is the number of true assignments. *)
val count_ones : t -> int

(** [complement t] is [not t]. *)
val complement : t -> t

(** [dual t] is the Boolean dual [fun m -> not (t (complement m))]. A
    function is self-dual when [dual t = t] (e.g. 3-input XOR). *)
val dual : t -> t

(** [xor_n nvars] is the parity function of [nvars] inputs. *)
val xor_n : int -> t

(** [majority_n nvars] is true when more than half of the inputs are 1
    (requires odd [nvars]). *)
val majority_n : int -> t
