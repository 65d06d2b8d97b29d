(** Physical constants (SI) at T = 300 K. *)

val q : float
(** elementary charge, C *)

val eps0 : float
(** vacuum permittivity, F/m *)

val thermal_voltage : float
(** kT/q at 300 K, V (~25.85 mV) *)

val ni_si : float
(** silicon intrinsic carrier concentration at 300 K, 1/m^3 *)

val eps_si : float
(** silicon permittivity, F/m *)
