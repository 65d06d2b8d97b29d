(** Experiment F3 — paper Fig 3: XOR3 realizations on 3 x 4 and (minimum
    size) 3 x 3 lattices, plus the generic dual-based synthesis for
    comparison. The minimum size itself is re-derived by the exhaustive
    search of [ftl synth -e]. *)

type result = {
  lattice_3x3_valid : bool;
  lattice_3x4_valid : bool;
  altun_riedel_rows : int;
  altun_riedel_cols : int;
  altun_riedel_valid : bool;
}

(** [run ()] validates the library lattices. *)
val run : unit -> result

val report : unit -> Report.t
