(** Rectangular four-terminal switching lattices.

    An [m x n] lattice (paper Fig 2b) is a grid of four-terminal switches;
    each switch is connected to its horizontal and vertical neighbours, the
    top plate touches every switch of row 0 and the bottom plate every switch
    of row [m-1]. A switch conducts between all four of its terminals when
    its control input evaluates to 1.

    A grid assigns to every site a control entry: a literal of the target
    function or a constant. The lattice function of the "generic" lattice,
    whose site [(r, c)] is controlled by its own fresh variable
    [x_{r*n+c+1}], is the object Table I counts. *)

type entry =
  | Lit of int * bool  (** variable index, polarity ([true] = positive) *)
  | Const of bool

type t = private {
  rows : int;
  cols : int;
  entries : entry array;  (** row-major, length [rows * cols] *)
}

(** [create rows cols entries] validates dimensions ([>= 1]) and length. *)
val create : int -> int -> entry array -> t

(** [of_strings rows] builds a grid from rows like [["a"; "b'"; "1"]]; each
    cell is a variable name, optionally primed, or ["0"]/["1"]. Variables
    are interned in first-appearance order; the name table is returned. *)
val of_strings : string list list -> t * string array

(** [entry t r c] reads the control entry at [(r, c)]. *)
val entry : t -> int -> int -> entry

(** [size t] is [rows * cols], the switch count. *)
val size : t -> int

(** [nvars t] is 1 + the largest variable index mentioned (0 if none). *)
val nvars : t -> int

(** [on_pattern t assignment] is the per-site conduction pattern under a
    variable-bitmask assignment: element [i] is [true] when switch [i] is
    ON. *)
val on_pattern : t -> int -> bool array

(** [to_string ~names t] renders the grid, one row per line. *)
val to_string : names:(int -> string) -> t -> string
