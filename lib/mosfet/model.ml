type t = L1 of Level1.params | L3 of Level3.params

let[@inline] ids m ~vgs ~vds =
  match m with L1 p -> Level1.ids p ~vgs ~vds | L3 p -> Level3.ids p ~vgs ~vds

let linearize (w : Level1.workspace) m =
  match m with
  | L1 p -> Level1.linearize w p
  | L3 p ->
    (* level-3 curves go through the generic entry points (they allocate;
       the default lattice switch types are level-1) *)
    let vgs = w.Level1.w_vgs and vds = w.Level1.w_vds in
    w.Level1.w_ids <- Level3.ids p ~vgs ~vds;
    w.Level1.w_gm <- Level3.gm p ~vgs ~vds;
    w.Level1.w_gds <- Level3.gds p ~vgs ~vds

let on_conductance m ~vdd =
  let dv = 1e-3 in
  ids m ~vgs:vdd ~vds:dv /. dv
