module Level1 = Lattice_mosfet.Level1
module Matrix = Lattice_numerics.Matrix

type cap_companion = { geq : float array; ieq : float array }

let cap_count netlist =
  List.fold_left
    (fun acc e -> match e with Netlist.Capacitor _ -> acc + 1 | _ -> acc)
    0 (Netlist.elements netlist)

let voltage x node = if node = Netlist.ground then 0.0 else x.(Netlist.node_index node)

let cap_voltages netlist x =
  let out = ref [] in
  List.iter
    (function
      | Netlist.Capacitor { n1; n2; _ } -> out := (voltage x n1 -. voltage x n2) :: !out
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> ())
    (Netlist.elements netlist);
  Array.of_list (List.rev !out)

(* conductance stamp between two nodes *)
let stamp_conductance a n1 n2 g =
  let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
  if i1 >= 0 then Matrix.add_to a i1 i1 g;
  if i2 >= 0 then Matrix.add_to a i2 i2 g;
  if i1 >= 0 && i2 >= 0 then begin
    Matrix.add_to a i1 i2 (-.g);
    Matrix.add_to a i2 i1 (-.g)
  end

(* current [i] flowing out of node [n1] into node [n2] through a source *)
let stamp_current b n1 n2 i =
  let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
  if i1 >= 0 then b.(i1) <- b.(i1) -. i;
  if i2 >= 0 then b.(i2) <- b.(i2) +. i

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
   Shared by the dense stamp and the compiled stamp plan so both
   assemble identical device stamps. *)
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

let stamp_mosfet a b x ~gmin (m : Lattice_mosfet.Model.t) ~drain ~gate ~source =
  let vd = voltage x drain and vg = voltage x gate and vs = voltage x source in
  (* source/drain swap: the terminal at the lower potential acts as source *)
  let reversed = vd < vs in
  let dn, sn = if reversed then (source, drain) else (drain, source) in
  let lin = fet_lin_create () in
  lin.vd <- vd;
  lin.vg <- vg;
  lin.vs <- vs;
  linearize_fet (Level1.workspace_create ()) lin m;
  let gm = lin.gm and gds = lin.gds and ieq = lin.ieq in
  let idn = Netlist.node_index dn
  and isn = Netlist.node_index sn
  and ig = Netlist.node_index gate in
  let add r c v = if r >= 0 && c >= 0 then Matrix.add_to a r c v in
  if idn >= 0 then begin
    add idn ig gm;
    add idn idn gds;
    add idn isn (-.(gm +. gds));
    b.(idn) <- b.(idn) -. ieq
  end;
  if isn >= 0 then begin
    add isn ig (-.gm);
    add isn idn (-.gds);
    add isn isn (gm +. gds);
    b.(isn) <- b.(isn) +. ieq
  end;
  stamp_conductance a drain source gmin

let stamp netlist ~x ~time ~gmin ~gshunt ~source_scale ~caps =
  let n = Netlist.unknowns netlist in
  let a = Matrix.create n n in
  let b = Array.make n 0.0 in
  if gshunt > 0.0 then
    for i = 0 to Netlist.num_nodes netlist - 1 do
      Matrix.add_to a i i gshunt
    done;
  let cap_ordinal = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; ohms; _ } -> stamp_conductance a n1 n2 (1.0 /. ohms)
      | Netlist.Capacitor { n1; n2; _ } -> (
        let k = !cap_ordinal in
        incr cap_ordinal;
        match caps with
        | None -> ()
        | Some { geq; ieq } ->
          stamp_conductance a n1 n2 geq.(k);
          stamp_current b n1 n2 ieq.(k))
      | Netlist.Vsource { npos; nneg; wave; index; _ } ->
        let row = Netlist.vsource_row netlist index in
        let ip = Netlist.node_index npos and ineg = Netlist.node_index nneg in
        if ip >= 0 then begin
          Matrix.add_to a ip row 1.0;
          Matrix.add_to a row ip 1.0
        end;
        if ineg >= 0 then begin
          Matrix.add_to a ineg row (-1.0);
          Matrix.add_to a row ineg (-1.0)
        end;
        b.(row) <- b.(row) +. (source_scale *. Source.value wave time)
      | Netlist.Isource { npos; nneg; wave; _ } ->
        stamp_current b npos nneg (source_scale *. Source.value wave time)
      | Netlist.Mosfet { drain; gate; source; model; _ } ->
        stamp_mosfet a b x ~gmin model ~drain ~gate ~source)
    (Netlist.elements netlist);
  (a, b)
