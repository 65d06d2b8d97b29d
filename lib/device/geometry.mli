(** Device geometries from paper Table II.

    All three devices have four electrodes (T1..T4) on the north / east /
    south / west sides of a square footprint and a central gate:

    - {b Square}: enhancement type; 2400 x 2400 x 730 nm body, 700 x 200 x
      200 nm electrodes, 1000 x 1000 x 30 nm square gate.
    - {b Cross}: enhancement type; as square but with a cross-shaped gate of
      200 nm arm width, which equalizes the six terminal-pair channels.
    - {b Junctionless}: depletion type; 24 x 24 x 8 nm body, 24 x 2 x 2 nm
      electrodes, 4 x 4 x 3 nm all-around gate over an n-type nanowire.

    The six terminal pairs [C(4,2)] fall into two classes: four {e adjacent}
    pairs (N-E, E-S, S-W, W-N) and two {e opposite} pairs (N-S, E-W). The
    effective channel lengths below are the ones the paper extracts for its
    two MOSFET types (Type A 0.35 um adjacent, Type B 0.5 um opposite for
    the square device). *)

type shape = Square | Cross | Junctionless

type t = {
  shape : shape;
  device_x : float;  (** footprint edge, m *)
  device_y : float;
  device_z : float;  (** body thickness, m *)
  electrode_w : float;  (** electrode width along its side, m *)
  electrode_d : float;  (** electrode depth into the body, m *)
  tox : float;  (** gate dielectric thickness, m *)
  gate_extent : float;  (** gate edge (square) or arm width (cross), m *)
  channel_width : float;  (** effective per-pair channel width W, m *)
  l_adjacent : float;  (** effective L, adjacent pairs (Type A), m *)
  l_opposite : float;  (** effective L, opposite pairs (Type B), m *)
  junction_area : float;  (** drain-junction area for the leakage floor, m^2 *)
  wire_cross_section : float;  (** conduction cross-section (junctionless), m^2 *)
}

(** The Table II devices. *)
val square : t

val cross : t
val junctionless : t

val shape_name : shape -> string

(** [is_depletion g] — [true] only for the junctionless device. *)
val is_depletion : t -> bool
