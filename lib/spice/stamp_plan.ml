module Sparse = Lattice_numerics.Sparse
module Model = Lattice_mosfet.Model
module Level1 = Lattice_mosfet.Level1

let compiles_counter = Lattice_obs.Metrics.counter "spice.plan_compiles"

(* One compiled MOSFET: node indices (-1 = ground) and direct slots into
   the sparse value array for every entry either orientation of the
   companion stamp can touch (-1 when the row or column is ground). The
   same four pairwise slots carry the gmin drain-source conductance. *)
type fet = {
  f_model : Model.t;
  f_d : int;
  f_g : int;
  f_s : int;
  s_dd : int;
  s_ds : int;
  s_sd : int;
  s_ss : int;
  s_dg : int;
  s_sg : int;
}

type t = {
  n : int;
  nnodes : int;
  elements : Netlist.element list; (* as compiled, for [rebind]'s check *)
  pattern : Sparse.pattern;
  (* constant tier: resistors + voltage-source incidence, summed once *)
  static_vals : float array;
  diag_slots : int array; (* slot of (i, i) for every node row (gshunt) *)
  fets : fet array;
  (* capacitors, netlist order (matches Mna.cap_companion indexing) *)
  cap_i1 : int array;
  cap_i2 : int array;
  cap_s11 : int array;
  cap_s22 : int array;
  cap_s12 : int array;
  cap_s21 : int array;
  (* independent sources, for the per-solve RHS; [rebind] rewrites the
     waves in place *)
  vs_rows : int array;
  vs_waves : Source.t array;
  is_pos : int array;
  is_neg : int array;
  is_waves : Source.t array;
  (* workspace *)
  a : Sparse.t;
  a0 : float array; (* cached linear tier of the matrix values *)
  b0 : float array; (* cached linear tier of the RHS *)
  rhs : float array;
  x : float array;
  x_new : float array;
  lin : Mna.fet_lin;
  ws : Level1.workspace;
  mutable lu : Sparse.lu option; (* None: the next factorization is a solve's first *)
  mutable first : (float array * Sparse.lu) option;
      (* the latest first factorization and the matrix values at x = 0 it factored *)
  zero : float array; (* x = 0, where a solve's first pivot order comes from *)
  held_a : float array; (* a solve's own first matrix and RHS, held while *)
  held_rhs : float array; (* the matrix at x = 0 is assembled *)
}

let n t = t.n
let matrix t = t.a
let rhs t = t.rhs
let x_buffer t = t.x
let x_new_buffer t = t.x_new

let compile netlist =
  Lattice_obs.Metrics.Counter.incr compiles_counter;
  let n = Netlist.unknowns netlist in
  let nnodes = Netlist.num_nodes netlist in
  let elements = Netlist.elements netlist in
  let b = Sparse.Builder.create n in
  (* node diagonals: the continuation-shunt fallback stamps all of them *)
  for i = 0 to nnodes - 1 do
    Sparse.Builder.add b i i
  done;
  let reserve_conductance i1 i2 =
    if i1 >= 0 then Sparse.Builder.add b i1 i1;
    if i2 >= 0 then Sparse.Builder.add b i2 i2;
    if i1 >= 0 && i2 >= 0 then begin
      Sparse.Builder.add b i1 i2;
      Sparse.Builder.add b i2 i1
    end
  in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; _ } | Netlist.Capacitor { n1; n2; _ } ->
        reserve_conductance (Netlist.node_index n1) (Netlist.node_index n2)
      | Netlist.Vsource { npos; nneg; index; _ } ->
        let row = Netlist.vsource_row netlist index in
        let ip = Netlist.node_index npos and ineg = Netlist.node_index nneg in
        if ip >= 0 then begin
          Sparse.Builder.add b ip row;
          Sparse.Builder.add b row ip
        end;
        if ineg >= 0 then begin
          Sparse.Builder.add b ineg row;
          Sparse.Builder.add b row ineg
        end
      | Netlist.Isource _ -> ()
      | Netlist.Mosfet { drain; gate; source; _ } ->
        let d = Netlist.node_index drain
        and g = Netlist.node_index gate
        and s = Netlist.node_index source in
        reserve_conductance d s;
        if d >= 0 && g >= 0 then Sparse.Builder.add b d g;
        if s >= 0 && g >= 0 then Sparse.Builder.add b s g)
    elements;
  let pattern = Sparse.Builder.compile b in
  let slot r c = if r >= 0 && c >= 0 then Sparse.slot pattern ~row:r ~col:c else -1 in
  let static_vals = Array.make (Sparse.nnz pattern) 0.0 in
  let stamp_static_conductance i1 i2 g =
    if i1 >= 0 then begin
      let s = slot i1 i1 in
      static_vals.(s) <- static_vals.(s) +. g
    end;
    if i2 >= 0 then begin
      let s = slot i2 i2 in
      static_vals.(s) <- static_vals.(s) +. g
    end;
    if i1 >= 0 && i2 >= 0 then begin
      let s = slot i1 i2 in
      static_vals.(s) <- static_vals.(s) -. g;
      let s = slot i2 i1 in
      static_vals.(s) <- static_vals.(s) -. g
    end
  in
  let fets = ref [] in
  let caps = ref [] in
  let vsrcs = ref [] in
  let isrcs = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; ohms; _ } ->
        stamp_static_conductance (Netlist.node_index n1) (Netlist.node_index n2) (1.0 /. ohms)
      | Netlist.Capacitor { n1; n2; _ } ->
        let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
        caps := (i1, i2, slot i1 i1, slot i2 i2, slot i1 i2, slot i2 i1) :: !caps
      | Netlist.Vsource { npos; nneg; wave; index; _ } ->
        let row = Netlist.vsource_row netlist index in
        let ip = Netlist.node_index npos and ineg = Netlist.node_index nneg in
        if ip >= 0 then begin
          static_vals.(slot ip row) <- static_vals.(slot ip row) +. 1.0;
          static_vals.(slot row ip) <- static_vals.(slot row ip) +. 1.0
        end;
        if ineg >= 0 then begin
          static_vals.(slot ineg row) <- static_vals.(slot ineg row) -. 1.0;
          static_vals.(slot row ineg) <- static_vals.(slot row ineg) -. 1.0
        end;
        vsrcs := (row, wave) :: !vsrcs
      | Netlist.Isource { npos; nneg; wave; _ } ->
        isrcs := (Netlist.node_index npos, Netlist.node_index nneg, wave) :: !isrcs
      | Netlist.Mosfet { drain; gate; source; model; _ } ->
        let d = Netlist.node_index drain
        and g = Netlist.node_index gate
        and s = Netlist.node_index source in
        fets :=
          {
            f_model = model;
            f_d = d;
            f_g = g;
            f_s = s;
            s_dd = slot d d;
            s_ds = slot d s;
            s_sd = slot s d;
            s_ss = slot s s;
            s_dg = slot d g;
            s_sg = slot s g;
          }
          :: !fets)
    elements;
  let caps = Array.of_list (List.rev !caps) in
  let vsrcs = Array.of_list (List.rev !vsrcs) in
  let isrcs = Array.of_list (List.rev !isrcs) in
  {
    n;
    nnodes;
    elements;
    pattern;
    static_vals;
    diag_slots = Array.init nnodes (fun i -> slot i i);
    fets = Array.of_list (List.rev !fets);
    cap_i1 = Array.map (fun (i1, _, _, _, _, _) -> i1) caps;
    cap_i2 = Array.map (fun (_, i2, _, _, _, _) -> i2) caps;
    cap_s11 = Array.map (fun (_, _, s11, _, _, _) -> s11) caps;
    cap_s22 = Array.map (fun (_, _, _, s22, _, _) -> s22) caps;
    cap_s12 = Array.map (fun (_, _, _, _, s12, _) -> s12) caps;
    cap_s21 = Array.map (fun (_, _, _, _, _, s21) -> s21) caps;
    vs_rows = Array.map fst vsrcs;
    vs_waves = Array.map snd vsrcs;
    is_pos = Array.map (fun (p, _, _) -> p) isrcs;
    is_neg = Array.map (fun (_, q, _) -> q) isrcs;
    is_waves = Array.map (fun (_, _, w) -> w) isrcs;
    a = Sparse.create pattern;
    a0 = Array.make (Sparse.nnz pattern) 0.0;
    b0 = Array.make n 0.0;
    rhs = Array.make n 0.0;
    x = Array.make n 0.0;
    x_new = Array.make n 0.0;
    lin = Mna.fet_lin_create ();
    ws = Level1.workspace_create ();
    lu = None;
    first = None;
    zero = Array.make n 0.0;
    held_a = Array.make (Sparse.nnz pattern) 0.0;
    held_rhs = Array.make n 0.0;
  }

(* [e] is [c] up to the wave of an independent source *)
let same_but_wave (c : Netlist.element) (e : Netlist.element) =
  c == e
  ||
  match (c, e) with
  | Netlist.Vsource a, Netlist.Vsource b ->
    a.name = b.name && a.npos = b.npos && a.nneg = b.nneg && a.index = b.index
  | Netlist.Isource a, Netlist.Isource b -> a.name = b.name && a.npos = b.npos && a.nneg = b.nneg
  | (Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mosfet _), _ -> compare c e = 0
  | (Netlist.Vsource _ | Netlist.Isource _), _ -> false

let rebind t netlist =
  let elements = Netlist.elements netlist in
  if
    not
      (Netlist.unknowns netlist = t.n
      && Netlist.num_nodes netlist = t.nnodes
      && List.equal same_but_wave t.elements elements)
  then invalid_arg "Stamp_plan.rebind: the netlist's structure differs from the compiled plan's";
  let vk = ref 0 and ik = ref 0 in
  List.iter
    (function
      | Netlist.Vsource { wave; _ } ->
        t.vs_waves.(!vk) <- wave;
        incr vk
      | Netlist.Isource { wave; _ } ->
        t.is_waves.(!ik) <- wave;
        incr ik
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mosfet _ -> ())
    elements;
  t.lu <- None

let set_linear t ~time ~gmin ~gshunt ~source_scale ~caps =
  let a0 = t.a0 and b0 = t.b0 in
  Array.blit t.static_vals 0 a0 0 (Array.length a0);
  Array.fill b0 0 t.n 0.0;
  if gshunt > 0.0 then
    for i = 0 to t.nnodes - 1 do
      let s = t.diag_slots.(i) in
      a0.(s) <- a0.(s) +. gshunt
    done;
  (* gmin across every MOSFET's drain-source pair *)
  for k = 0 to Array.length t.fets - 1 do
    let f = t.fets.(k) in
    if f.s_dd >= 0 then a0.(f.s_dd) <- a0.(f.s_dd) +. gmin;
    if f.s_ss >= 0 then a0.(f.s_ss) <- a0.(f.s_ss) +. gmin;
    if f.s_ds >= 0 then begin
      a0.(f.s_ds) <- a0.(f.s_ds) -. gmin;
      a0.(f.s_sd) <- a0.(f.s_sd) -. gmin
    end
  done;
  (match caps with
  | None -> ()
  | Some { Mna.geq; ieq } ->
    for k = 0 to Array.length t.cap_i1 - 1 do
      let g = geq.(k) in
      if t.cap_s11.(k) >= 0 then a0.(t.cap_s11.(k)) <- a0.(t.cap_s11.(k)) +. g;
      if t.cap_s22.(k) >= 0 then a0.(t.cap_s22.(k)) <- a0.(t.cap_s22.(k)) +. g;
      if t.cap_s12.(k) >= 0 then begin
        a0.(t.cap_s12.(k)) <- a0.(t.cap_s12.(k)) -. g;
        a0.(t.cap_s21.(k)) <- a0.(t.cap_s21.(k)) -. g
      end;
      (* companion current flows out of n1 into n2 *)
      let i = ieq.(k) in
      if t.cap_i1.(k) >= 0 then b0.(t.cap_i1.(k)) <- b0.(t.cap_i1.(k)) -. i;
      if t.cap_i2.(k) >= 0 then b0.(t.cap_i2.(k)) <- b0.(t.cap_i2.(k)) +. i
    done);
  for k = 0 to Array.length t.vs_rows - 1 do
    let row = t.vs_rows.(k) in
    b0.(row) <- b0.(row) +. (source_scale *. Source.value t.vs_waves.(k) time)
  done;
  for k = 0 to Array.length t.is_pos - 1 do
    let i = source_scale *. Source.value t.is_waves.(k) time in
    if t.is_pos.(k) >= 0 then b0.(t.is_pos.(k)) <- b0.(t.is_pos.(k)) -. i;
    if t.is_neg.(k) >= 0 then b0.(t.is_neg.(k)) <- b0.(t.is_neg.(k)) +. i
  done

let assemble t ~x =
  let v = t.a.Sparse.values in
  Array.blit t.a0 0 v 0 (Array.length v);
  Array.blit t.b0 0 t.rhs 0 t.n;
  let rhs = t.rhs in
  let lin = t.lin in
  let ws = t.ws in
  for k = 0 to Array.length t.fets - 1 do
    let f = t.fets.(k) in
    let vd = if f.f_d < 0 then 0.0 else x.(f.f_d) in
    let vg = if f.f_g < 0 then 0.0 else x.(f.f_g) in
    let vs = if f.f_s < 0 then 0.0 else x.(f.f_s) in
    lin.Mna.vd <- vd;
    lin.Mna.vg <- vg;
    lin.Mna.vs <- vs;
    Mna.linearize_fet ws lin f.f_model;
    let gm = lin.Mna.gm and gds = lin.Mna.gds and ieq = lin.Mna.ieq in
    (* the lower-potential terminal is the effective source *)
    if vd >= vs then begin
      if f.f_d >= 0 then begin
        if f.s_dg >= 0 then v.(f.s_dg) <- v.(f.s_dg) +. gm;
        v.(f.s_dd) <- v.(f.s_dd) +. gds;
        if f.s_ds >= 0 then v.(f.s_ds) <- v.(f.s_ds) -. (gm +. gds);
        rhs.(f.f_d) <- rhs.(f.f_d) -. ieq
      end;
      if f.f_s >= 0 then begin
        if f.s_sg >= 0 then v.(f.s_sg) <- v.(f.s_sg) -. gm;
        if f.s_sd >= 0 then v.(f.s_sd) <- v.(f.s_sd) -. gds;
        v.(f.s_ss) <- v.(f.s_ss) +. (gm +. gds);
        rhs.(f.f_s) <- rhs.(f.f_s) +. ieq
      end
    end
    else begin
      (* reversed: drain and source swap roles *)
      if f.f_s >= 0 then begin
        if f.s_sg >= 0 then v.(f.s_sg) <- v.(f.s_sg) +. gm;
        v.(f.s_ss) <- v.(f.s_ss) +. gds;
        if f.s_sd >= 0 then v.(f.s_sd) <- v.(f.s_sd) -. (gm +. gds);
        rhs.(f.f_s) <- rhs.(f.f_s) -. ieq
      end;
      if f.f_d >= 0 then begin
        if f.s_dg >= 0 then v.(f.s_dg) <- v.(f.s_dg) -. gm;
        if f.s_ds >= 0 then v.(f.s_ds) <- v.(f.s_ds) -. gds;
        v.(f.s_dd) <- v.(f.s_dd) +. (gm +. gds);
        rhs.(f.f_d) <- rhs.(f.f_d) +. ieq
      end
    end
  done

let same_bits a b =
  let n = Array.length a in
  let rec go i = i >= n || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && go (i + 1)) in
  n = Array.length b && go 0

(* A solve's first factorization takes its pivot order from the matrix
   at x = 0 under the same linear tier, which depends neither on the
   source waves nor on where the solve starts, and memoizes it keyed on
   those values. The pattern fixed the order its columns are eliminated
   in when the plan was compiled; [factorize] picks the pivot rows and
   fill from the values alone and computes its numbers with the same
   numeric pass [refactor] runs, so refactoring through the memo's order
   gives the bits a fresh [factorize] of identical values would. A solve
   that starts away from x = 0 refactors its own first matrix through
   that order, and gets a full analysis of its own only when the order
   fails on it. *)
let first_factorization t =
  let v = t.a.Sparse.values in
  match t.first with
  | Some (values, lu) when same_bits values v ->
    Sparse.refactor lu t.a;
    lu
  | first ->
    Array.blit v 0 t.held_a 0 (Array.length v);
    Array.blit t.rhs 0 t.held_rhs 0 t.n;
    assemble t ~x:t.zero;
    let lu =
      match first with
      | Some (values, lu) when same_bits values v -> lu
      | Some _ | None ->
        let lu = Sparse.factorize t.a in
        t.first <- Some (Array.copy v, lu);
        lu
    in
    let at_zero = same_bits t.held_a v in
    Array.blit t.held_a 0 v 0 (Array.length v);
    Array.blit t.held_rhs 0 t.rhs 0 t.n;
    if at_zero then lu
    else
      try
        Sparse.refactor lu t.a;
        lu
      with Sparse.Singular _ -> Sparse.factorize t.a

let factor_and_solve t =
  (match t.lu with
  | None -> t.lu <- Some (first_factorization t)
  | Some lu -> (
    try Sparse.refactor lu t.a
    with Sparse.Singular _ ->
      (* the frozen pivot order went numerically stale; redo the full
         analysis (re-picks pivots for the current values) *)
      t.lu <- Some (Sparse.factorize t.a)));
  match t.lu with
  | Some lu -> Sparse.solve_in_place lu t.rhs
  | None -> assert false

let lu_stats t = match t.lu with None -> None | Some lu -> Some (Sparse.lu_nnz lu)
