(** Level-1 (Shichman-Hodges) MOSFET equations, exactly as printed in the
    paper's Section IV:

    {v
      IDS = 0                                                   VGS <= Vth
      IDS = Kp W/L [(VGS-Vth) VDS - VDS^2/2] (1 + lambda VDS)   triode
      IDS = 1/2 Kp W/L (VGS-Vth)^2 (1 + lambda VDS)             saturation
    v}

    Shared by the parameter-extraction code ([Lattice_fit]) and the circuit
    simulator ([Lattice_spice]). All quantities are SI: amperes, volts,
    metres. *)

type params = {
  kp : float;  (** transconductance parameter [mu_n * Cox], A/V^2 *)
  vth : float;  (** threshold voltage, V (negative for depletion devices) *)
  lambda : float;  (** channel-length modulation, 1/V *)
  w : float;  (** channel width, m *)
  l : float;  (** channel length, m *)
}

(** [ids p ~vgs ~vds] is the drain-source current for [vds >= 0]; raises
    [Invalid_argument] on negative [vds]. *)
val ids : params -> vgs:float -> vds:float -> float

(** [beta p] is the gain factor [Kp * W / L], A/V^2. *)
val beta : params -> float

(** All-float linearization workspace: write [w_vgs]/[w_vds], call
    {!linearize}, read [w_ids]/[w_gm]/[w_gds]. Passing operands through
    unboxed record fields (instead of boxed float arguments) lets the
    circuit engine's Newton inner loop run without allocating. *)
type workspace = {
  mutable w_vgs : float;
  mutable w_vds : float;
  mutable w_ids : float;  (** = [ids p ~vgs ~vds], bit-identical *)
  mutable w_gm : float;  (** the analytic transconductance [d IDS / d VGS] *)
  mutable w_gds : float;  (** the analytic output conductance [d IDS / d VDS] *)
}

val workspace_create : unit -> workspace

(** [linearize w p] evaluates ids/gm/gds at ([w.w_vgs], [w.w_vds]) into
    the output fields, allocation-free. Raises [Invalid_argument] on
    negative [w_vds]. *)
val linearize : workspace -> params -> unit
