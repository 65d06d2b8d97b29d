(** Sum-of-products (disjunction of cubes) over at most 62 variables. *)

type t = private {
  nvars : int;
  cubes : Cube.t list;  (** sorted, duplicate-free *)
}

(** [zero nvars] is the constant-false function. *)
val zero : int -> t

(** [one nvars] is the constant-true function (single empty cube). *)
val one : int -> t

(** [of_cubes nvars cubes] sorts, deduplicates and stores the cubes. *)
val of_cubes : int -> Cube.t list -> t

(** [cubes f] is the cube list (sorted). *)
val cubes : t -> Cube.t list

(** [product_count f] is the number of cubes. *)
val product_count : t -> int

(** [absorb f] removes every cube implied by (absorbed into) another cube,
    yielding an equivalent, irredundant-by-containment SOP. *)
val absorb : t -> t

(** [to_string ~names f] renders e.g. ["a b' + c"]; constant functions
    render as ["0"] / ["1"]. *)
val to_string : names:(int -> string) -> t -> string

(** [default_names] maps 0.. to ["x1"; "x2"; ...]. *)
val default_names : int -> string

(** [alpha_names] maps 0.. to ["a"; "b"; ... ; "z"; "v26"; ...]. *)
val alpha_names : int -> string
