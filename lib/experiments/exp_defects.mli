(** Graceful-degradation campaign over the paper's XOR3 3x3 lattice: every
    stuck-open / stuck-short circuit defect simulated, classified, and
    cross-checked against the logical test set. *)

val report : unit -> Report.t
