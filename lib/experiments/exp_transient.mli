(** Experiment F11 — paper Fig 11: SPICE transient of the inverse XOR3 gate
    (3 x 3 lattice pull-down, 500 k pull-up, VDD = 1.2 V, 1 fF terminal
    caps, 10 fF output cap).

    Paper readings: zero-state output voltage ~0.22 V, rise time ~11.3 ns,
    fall time ~4.7 ns; the lattice "operates as expected". *)

type result = {
  times : float array;
  out : float array;
  v_low : float;  (** zero-state output level *)
  v_high : float;
  rise_time : float option;
  fall_time : float option;
  functional_pass : bool;  (** output = NOT XOR3 at every settled input combination *)
  slot_values : (int * float * bool) list;  (** combo index, sampled V, expected logic-1 *)
}

(** [run ?bit_time ?h ()] simulates all 8 input combinations with the
    trapezoidal integrator (defaults: 100 ns per combination, 0.5 ns
    step). *)
val run : ?bit_time:float -> ?h:float -> unit -> result

val report : unit -> Report.t
