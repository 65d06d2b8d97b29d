(** Independent-source waveforms. *)

type t =
  | Dc of float
  | Pulse of {
      v1 : float;  (** initial level, V *)
      v2 : float;  (** pulsed level, V *)
      delay : float;  (** s *)
      rise : float;  (** s *)
      fall : float;  (** s *)
      width : float;  (** pulse width at [v2], s *)
      period : float;  (** repetition period, s *)
    }
  | Pwl of (float * float) list  (** (time, value) pairs, times increasing *)
  | Sin of {
      offset : float;  (** VO, V *)
      amplitude : float;  (** VA, V *)
      freq : float;  (** Hz *)
      delay : float;  (** TD: hold at [offset] until then, s *)
      damping : float;  (** THETA, 1/s; 0 for an undamped sine *)
    }  (** the SPICE [SIN(VO VA FREQ TD THETA)] waveform *)

(** [value w t] evaluates the waveform at time [t >= 0]. *)
val value : t -> float -> float

(** [bit_clock ~vdd ~bit_time ~bit_index ()] is the classic binary-counter
    stimulus, a 50%-duty pulse train from 0 to [vdd] that starts low:
    input [bit_index] toggles every [2^bit_index] bit times, so driving
    inputs 0..k-1 walks through all [2^k] input combinations — the Fig 11
    XOR3 stimulus. Transitions take [bit_time / 50]. *)
val bit_clock : vdd:float -> bit_time:float -> bit_index:int -> unit -> t
