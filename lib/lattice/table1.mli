(** Paper Table I: number of products of the [m x n] lattice function.

    The published values cover [2 <= m, n <= 9]; this module reproduces them
    by counting irredundant paths and also ships the printed values for
    regression checks. *)

(** [count ~rows ~cols] computes the entry on the {!Zdd} of the path
    family (the largest published entry, 9 x 9 with 38 930 447 products,
    counts in well under a second; 12 x 12 stays tractable). Results are
    memoized per dimension pair behind a mutex, so the engine's Domain
    pool can call this concurrently. *)
val count : rows:int -> cols:int -> int

(** [paper_value ~rows ~cols] is the value printed in Table I, for
    [2 <= rows, cols <= 9]; raises [Invalid_argument] outside that range. *)
val paper_value : rows:int -> cols:int -> int

(** [render ?max_dim ~compute ()] formats the table like the paper
    (rows [m], columns [n]); with [compute = true] values are recomputed
    and [max_dim] may extend to 12, otherwise the published values are
    printed (capped at 9). [max_dim] (default 9) trims the table for
    quick runs. *)
val render : ?max_dim:int -> compute:bool -> unit -> string
