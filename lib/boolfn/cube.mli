(** Product terms (cubes) over at most 62 Boolean variables.

    A cube is a conjunction of literals stored as two bitmasks: [pos] holds
    the positive literals, [neg] the complemented ones. The constant-true
    cube has both masks empty. A cube mentioning [x] and [not x] together is
    contradictory and rejected by the constructors. *)

type t = private { pos : int; neg : int }

exception Contradictory
(** Raised when a construction would produce [x /\ not x]. *)

(** Maximum supported variable index + 1. *)
val max_vars : int

(** The constant-true cube (empty product). *)
val one : t

(** [of_masks ~pos ~neg] validates and builds a cube.
    Raises [Contradictory] when the masks overlap. *)
val of_masks : pos:int -> neg:int -> t

(** [of_literals lits] builds a cube from [(variable, polarity)] pairs;
    polarity [true] means the positive literal. *)
val of_literals : (int * bool) list -> t

(** [and_literal c var polarity] extends the product with one more literal.
    Raises [Contradictory] on conflict; idempotent on repetition. *)
val and_literal : t -> int -> bool -> t

(** [implies a b] is [true] when cube [a] implies cube [b] as functions,
    i.e. [b]'s literal set is a subset of [a]'s. *)
val implies : t -> t -> bool

(** [compare] is a total order suitable for sorting/deduplication. *)
val compare : t -> t -> int

(** [to_string ~names c] renders e.g. ["a b' c"]; [names] supplies variable
    names by index. The empty cube renders as ["1"]. *)
val to_string : names:(int -> string) -> t -> string
