(** Every reproduction experiment, in the paper's order. *)

(** [print_all ()] runs every table/figure reproduction (using the quick
    Table I setting unless [FTL_TABLE1_FULL] is set) plus the Section VI-A
    complementary-structure extension, and renders the reports to
    stdout. *)
val print_all : unit -> unit
