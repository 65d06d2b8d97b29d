(** Piecewise-linear interpolation and level-crossing detection on sampled
    curves.

    Shared by the waveform measurement code (rise/fall times of the XOR3
    transient, Fig 11) and the threshold-voltage extraction (constant-current
    crossing of an I-V sweep). *)

(** [lookup xs ys x] linearly interpolates [ys] over the strictly increasing
    abscissae [xs] at [x], clamping outside the range. Raises
    [Invalid_argument] on empty or mismatched inputs. *)
val lookup : float array -> float array -> float -> float

(** [crossings xs ys level] is every abscissa (in order) at which the
    piecewise-linear curve crosses [level], interpolated between samples.
    Exact hits at sample points are reported once. *)
val crossings : float array -> float array -> float -> float list

(** [first_crossing xs ys level] is [Some x] for the earliest crossing, or
    [None] when the curve never reaches [level]. *)
val first_crossing : float array -> float array -> float -> float option

(** [bisect f lo hi ~tol] finds a root of [f] in [[lo, hi]] by bisection,
    assuming [f lo] and [f hi] have opposite signs (raises
    [Invalid_argument] otherwise). Stops when the bracket is narrower than
    [tol]. *)
val bisect : (float -> float) -> float -> float -> tol:float -> float
