(** Experiment (Section III-B): the 16 drain/source operating cases.

    The paper explores DSFF, SFDF, 1-drain-3-source, 2-2 and 3-1 cases "in
    the symmetric and non-symmetric operating conditions" and reports "good
    correlations between the symmetric simulations". Here the compact model
    evaluates every case at VGS = VDS = 5 V and the report groups cases
    that are geometric rotations/reflections of each other — their total
    drain currents must agree exactly, and they do. *)

val report : unit -> Report.t
