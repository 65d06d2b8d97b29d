(** Circuit-level fabrication defects for four-terminal switching lattices.

    The logical fault model of {!Lattice_synthesis.Faults} knows two faults:
    a switch stuck OFF or stuck ON. At circuit level a die can fail in more
    ways — and the same logical fault can have very different electrical
    severity. This module models five defect families and injects them into
    a lattice netlist through {!Lattice_circuit.site_hook}:

    - {e stuck-open}: the six-FET switch is replaced by very weak leakage
      paths ([r_open] across north–south and east–west) — the electrical
      realization of the logical stuck-OFF fault;
    - {e stuck-short}: the switch is replaced by hard resistive shorts
      ([r_short]) across all four adjacent terminal pairs — logical
      stuck-ON, gate ignored;
    - {e bridge}: a resistive bridge ([r_bridge]) between two adjacent
      terminals of an otherwise healthy switch (metal sliver, incomplete
      etch);
    - {e broken terminal}: one terminal reaches the lattice only through a
      high-resistance crack ([r_broken]); the switch itself is intact;
    - {e gate leak}: a gate-oxide leak ([r_leak]) from the gate driver to
      one terminal, loading the driver and disturbing the channel.

    Structural defects (stuck-open, stuck-short, broken terminal) replace
    the default switch instantiation; additive defects (bridge, gate leak)
    add elements next to it. When both hit one site, the additive elements
    are added and the first structural defect then replaces the switch. *)

type terminal = North | East | South | West

type kind =
  | Stuck_open
  | Stuck_short
  | Bridge of terminal * terminal
  | Broken_terminal of terminal
  | Gate_leak of terminal

type t = { row : int; col : int; kind : kind }
(** One defect at one lattice site. *)

val kind_name : kind -> string

val name : t -> string
(** Human-readable defect id, e.g. ["(1,2) bridge-NE"]. *)

(** Electrical severity knobs, all in ohms. *)
type params = {
  r_open : float;  (** stuck-open residual leakage (default 1e10) *)
  r_short : float;  (** stuck-short contact resistance (default 50) *)
  r_bridge : float;  (** terminal-terminal bridge (default 1e3) *)
  r_broken : float;  (** cracked-terminal series resistance (default 1e8) *)
  r_leak : float;  (** gate-oxide leak (default 1e6) *)
}

val default_params : params

val hook : ?params:params -> t list -> Lattice_circuit.site_hook
(** [hook ?params defects] is a site hook injecting every listed defect at
    its site; sites without defects fall through to the default switch. *)

val build :
  ?config:Lattice_circuit.config ->
  ?params:params ->
  ?types_of_site:(int -> int -> Fts.mosfet_types) ->
  defects:t list ->
  Lattice_core.Grid.t ->
  stimulus:(int -> Source.t) ->
  Lattice_circuit.t
(** [build ~defects grid ~stimulus] is {!Lattice_circuit.build} with
    [hook ?params defects] installed. *)

(** Defect families, for restricting enumeration. *)
type kind_class = Opens | Shorts | Bridges | Broken_terminals | Gate_leaks

val all_classes : kind_class list

val single_defects : ?classes:kind_class list -> Lattice_core.Grid.t -> t list
(** [single_defects grid] enumerates every single-site defect of the
    selected classes (default: all five) over every site of [grid]:
    14 defects per site — 1 open, 1 short, 4 bridges on the adjacent
    terminal pairs, 4 broken terminals, 4 gate leaks. *)
