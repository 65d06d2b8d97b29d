(** First-class MOSFET model: level-1 or level-3 behind one interface, so
    the circuit engine can stamp either. *)

type t = L1 of Level1.params | L3 of Level3.params

(** [ids m ~vgs ~vds] / [gm] / [gds] — current and conductances,
    [vds >= 0]. *)
val ids : t -> vgs:float -> vds:float -> float

val gm : t -> vgs:float -> vds:float -> float
val gds : t -> vgs:float -> vds:float -> float

(** [linearize w m] evaluates ids/gm/gds at ([w.w_vgs], [w.w_vds]) into
    [w]'s output fields — results identical to the functions above.
    Allocation-free for level-1 models (see {!Level1.workspace}). *)
val linearize : Level1.workspace -> t -> unit

(** [vth m] — the model's threshold voltage. *)
val vth : t -> float

(** [on_conductance m ~vdd] — small-signal channel conductance at
    [vgs = vdd], [vds -> 0]; used by analytic delay estimates. *)
val on_conductance : t -> vdd:float -> float
