(** First-class MOSFET model: level-1 or level-3 behind one interface, so
    the circuit engine can stamp either. *)

type t = L1 of Level1.params | L3 of Level3.params

(** [linearize w m] evaluates the current and its conductances
    ids/gm/gds at ([w.w_vgs], [w.w_vds] >= 0) into [w]'s output fields.
    Allocation-free for level-1 models (see {!Level1.workspace}). *)
val linearize : Level1.workspace -> t -> unit

(** [on_conductance m ~vdd] — small-signal channel conductance at
    [vgs = vdd], [vds -> 0]; used by analytic delay estimates. *)
val on_conductance : t -> vdd:float -> float
