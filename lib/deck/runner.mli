(** Deck analysis runner: executes a parsed deck's analysis cards
    through the batch engine, so CLI and daemon share one code path.

    [.op] and every [.dc] sweep point go through
    {!Lattice_engine.Engine.dc_op} — memoized under the content key, so
    identical decks (or an exported deck re-run from text) hit the cache
    and the persistent store. [.tran] runs {!Lattice_spice.Transient},
    [.ac] runs {!Lattice_spice.Ac}. *)

type limits = { max_sweep_points : int; max_tran_steps : int }
(** Default [{ max_sweep_points = 10_000; max_tran_steps = 2_000_000 }];
    servers pass something tighter. *)

type analysis_result =
  | Op_result of { strategy : string; rows : (string * float) list }
      (** probed (or all) node voltages; [strategy] is the winning
          {!Lattice_spice.Dcop.strategy} name *)
  | Dc_result of {
      source : string;
      probes : string list;
      rows : (float * (string * float) list) list;
    }  (** one row per sweep value of [V<source>] *)
  | Tran_result of {
      times : float array;
      nodes : (string * float array) list;
      currents : (string * float array) list;
      newton_iterations : int;
    }
  | Ac_result of {
      source : string;
      output : string;
      dc_gain : float;
      f_3db : float option;
      points : (float * float * float) list;  (** (freq_hz, |H|, phase_deg) *)
    }

type t = {
  title : string;
  digest : string;  (** {!Lattice_spice.Netlist.structural_digest} of the deck *)
  results : (Ast.analysis * analysis_result) list;
}

(** [check_limits ?smoke ~limits deck] is [Error msg] for the first
    analysis card of [deck] that asks for more work than [limits]
    allows — more [.dc] sweep points or [.tran] steps, counted after
    [smoke]'s caps — and [Ok ()] when none does. It runs nothing, so a
    server can refuse an oversized deck before any analysis starts. *)
val check_limits : ?smoke:bool -> limits:limits -> Ast.deck -> (unit, string) result

(** [run ~engine deck] executes the deck's analyses in card order (a
    deck with none gets an implicit [.op]). [cancel] is threaded into
    every solve, so deadlines abort mid-analysis ({!Lattice_spice.Cancel.Cancelled}
    propagates — a deadline is not a failure). [smoke] caps the work for
    CI smoke runs (transients truncated to 50 steps, sweeps to 5 points,
    AC to 3 points/decade); [limits] rejects oversized analyses with a
    structured error instead of truncating, through {!check_limits}
    before any analysis runs. Convergence failures and limit violations
    return [Error msg]; no other exception escapes. *)
val run :
  engine:Lattice_engine.Engine.t ->
  ?cancel:Lattice_spice.Cancel.t ->
  ?smoke:bool ->
  ?limits:limits ->
  Ast.deck ->
  (t, string) result

(** [render r] is the deterministic human-readable transcript printed by
    [ftl run] and the examples (row-capped for large sweeps). *)
val render : t -> string
