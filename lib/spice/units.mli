(** SPICE value syntax: the deck parser reads values with
    {!parse_spice} and the deck emitter prints them with {!print_spice}
    ("500k", "1f", "10n"). *)

(** [parse_spice s] reads a SPICE-syntax value: a decimal float followed
    by an optional engineering suffix and arbitrary trailing unit
    letters, e.g. ["10pF"], ["2ns"], ["4.7k"], ["1meg"].  The scale is
    taken from the first letters after the number ([meg] = 1e6,
    [mil] = 25.4e-6, otherwise the single-letter table where [m] = 1e-3
    -- so ["1meg"] is 1e6 while ["1m"] is 1e-3); unknown letters are a
    bare unit and scale by 1.  Returns [None] on anything that is not a
    finite value; never raises. *)
val parse_spice : string -> float option

(** [print_spice x] renders the shortest string [s] such that
    [parse_spice s] returns [x] bit-exactly.  Prefers a plain decimal,
    then suffixed forms from the largest scale down; deterministic, so
    emitted decks are byte-stable.  [print_spice 1e6 = "1meg"],
    [print_spice 1e-3 = "1m"], [print_spice 1e-11 = "10p"]. *)
val print_spice : float -> string
