(** Experiment F2 — paper Fig 2c: the 3 x 3 lattice function (9 products
    over x1..x9), checked against the products printed in the paper. *)

val report : unit -> Report.t
