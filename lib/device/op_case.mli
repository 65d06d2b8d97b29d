(** Terminal-role configurations of a four-terminal device.

    The paper explores 16 cases where each of T1..T4 acts as drain (D),
    source (S) or floats (F): one drain - one source (DSFF, SFDF), one
    drain - three sources (DSSS, SDSS, SSDS, SSSD), two - two (DDSS, SDDS,
    DSDS, DSSD, SDSD, SSDD) and three drains - one source (DDDS, SDDD,
    DDSD, DSDD). Terminals sit at the north (T1), east (T2), south (T3) and
    west (T4) sides, so pairs (T1,T3) and (T2,T4) are opposite and the rest
    adjacent. *)

type role = Drain | Source | Floating

type t = role array  (** length 4, index i = terminal T(i+1) *)

(** [of_string "DSSS"] parses a 4-letter case name (D/S/F, any case). *)
val of_string : string -> t

val to_string : t -> string

(** [all] is the paper's 16-case list, in its order. *)
val all : t list

(** [dsss] — the case used for every figure in the paper. *)
val dsss : t

(** [drains c] / [sources c] list terminal indices (0-based) by role. *)
val drains : t -> int list

val sources : t -> int list

(** [pairs c] lists all conducting (drain, source) terminal pairs together
    with whether the pair is geometrically opposite. *)
val pairs : t -> (int * int * bool) list

(** [is_valid c] — at least one drain and one source. *)
val is_valid : t -> bool
