module Level1 = Lattice_mosfet.Level1

type cap_companion = { geq : float array; ieq : float array }

let voltage x node = if node = Netlist.ground then 0.0 else x.(Netlist.node_index node)

(* Scratch for the linearized companion model of one MOSFET. All-float
   (inputs AND outputs) so every operand crosses the call as an unboxed
   record field rather than a boxed float argument: the sparse stamp plan
   reuses one scratch across its whole Newton loop without allocating. *)
type fet_lin = {
  mutable vd : float;
  mutable vg : float;
  mutable vs : float;
  mutable gm : float;
  mutable gds : float;
  mutable ieq : float;
}

let fet_lin_create () = { vd = 0.0; vg = 0.0; vs = 0.0; gm = 0.0; gds = 0.0; ieq = 0.0 }

(* Linearize the (source/drain-normalized) drain current at the terminal
   voltages [out.vd], [out.vg], [out.vs]: i_dn = gm vgs' + gds vds' + ieq.
   Shared by the compiled stamp plan and the tests' dense oracle so
   both assemble identical device stamps. *)
let linearize_fet (w : Level1.workspace) (out : fet_lin) (m : Lattice_mosfet.Model.t) =
  let vd = out.vd and vg = out.vg and vs = out.vs in
  let v_dn = if vd >= vs then vd else vs and v_sn = if vd >= vs then vs else vd in
  let vgs = vg -. v_sn and vds = v_dn -. v_sn in
  w.Level1.w_vgs <- vgs;
  w.Level1.w_vds <- vds;
  Lattice_mosfet.Model.linearize w m;
  let gm = w.Level1.w_gm and gds = w.Level1.w_gds in
  out.gm <- gm;
  out.gds <- gds;
  out.ieq <- w.Level1.w_ids -. (gm *. vgs) -. (gds *. vds)
