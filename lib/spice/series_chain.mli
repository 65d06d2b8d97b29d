(** Series-connected four-terminal switches — the drive-strength experiment
    of paper Fig 12.

    [n] switches ({!Fts.default_types}, 1 fF terminal caps) are stacked
    vertically (north of switch k+1 = south of switch k); every gate is
    tied to the gate bias, the bottom terminal is grounded and a voltage
    source drives the top terminal. *)

(** [current ~n ~v_top ()] is the DC current drawn through the chain at
    the given top voltage with the gates at 1.2 V, so every switch is ON
    (positive for conduction), A — one point of Fig 12a. Raises
    [Invalid_argument] when [n < 1]. *)
val current : n:int -> v_top:float -> unit -> float

(** [voltage_for_current ~n ~i_target ()] finds by bisection the top
    voltage at which the chain conducts [i_target], with the gates tied
    to that voltage — one point of Fig 12b. Searches in [0 .. 20 V]. *)
val voltage_for_current : n:int -> i_target:float -> unit -> float
