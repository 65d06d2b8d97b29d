(** Waveform measurements (the numbers the paper reads off Fig 11) and a
    terminal ASCII plotter. *)

(** [steady_levels times values ~settle] partitions the waveform into the
    samples after [settle] and returns [(low, high)] as robust percentile
    levels (5th / 95th) — the logic-0 and logic-1 output levels. *)
val steady_levels : float array -> float array -> settle:float -> float * float

(** [rise_time times values ~low ~high] is the first 10%-90% rise duration
    between levels [low] and [high], or [None]. *)
val rise_time : float array -> float array -> low:float -> high:float -> float option

(** [fall_time times values ~low ~high] is the first 90%-10% fall
    duration. *)
val fall_time : float array -> float array -> low:float -> high:float -> float option

(** [edge_between times values ~from_level ~to_level] is the duration of
    the first clean edge from one absolute level to another (no
    [from_level] re-crossing in between); useful for mid-swing propagation
    measurements. *)
val edge_between : float array -> float array -> from_level:float -> to_level:float -> float option

(** [value_at times values t] interpolates the waveform at [t]. *)
val value_at : float array -> float array -> float -> float

(** [integral times values] is the trapezoidal integral of the waveform
    over its full time span (e.g. supply charge from a current
    waveform). *)
val integral : float array -> float array -> float

(** [energy_from_supply ~vdd times supply_current] integrates
    [vdd * -i(t)] — the energy delivered by a source whose branch current
    is recorded with the "into the + terminal" sign convention. *)
val energy_from_supply : vdd:float -> float array -> float array -> float

(** [ascii_plot ~width ~height ~label times values] renders one waveform
    as an ASCII chart with time on the horizontal axis. *)
val ascii_plot : width:int -> height:int -> label:string -> float array -> float array -> string
