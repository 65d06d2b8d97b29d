module Sparse = Lattice_numerics.Sparse
module Model = Lattice_mosfet.Model
module Level1 = Lattice_mosfet.Level1

let compiles_counter = Lattice_obs.Metrics.counter "spice.plan_compiles"

(* One compiled MOSFET: node indices (-1 = ground) and direct slots into
   the sparse value array for every entry either orientation of the
   companion stamp can touch (-1 when the row or column is ground). The
   same four pairwise slots carry the gmin drain-source conductance. *)
type fet = {
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

(* Everything a plan needs that depends only on the circuit's
   structure: immutable once built, so the plans of every domain may
   share one. *)
type analysis = {
  n : int;
  nnodes : int;
  shape_rev : Netlist.element list; (* the analyzed elements, newest first *)
  pattern : Sparse.pattern;
  vs_static : float array; (* voltage-source incidence entries *)
  res_slots : int array; (* 4 per resistor, element order: (1,1) (2,2) (1,2) (2,1) *)
  diag_slots : int array; (* slot of (i, i) for every node row (gshunt) *)
  fets : fet array;
  (* capacitors, netlist order (matches Mna.cap_companion indexing) *)
  cap_i1 : int array;
  cap_i2 : int array;
  cap_s11 : int array;
  cap_s22 : int array;
  cap_s12 : int array;
  cap_s21 : int array;
  (* independent sources, for the per-solve RHS *)
  vs_rows : int array;
  is_pos : int array;
  is_neg : int array;
  first : (float array * Sparse.lu) option;
      (* the matrix at x = 0 under a DC plain rung's linear tier, and
         its factorization: a plan's first-factorization memo starts
         from it *)
}

type t = {
  an : analysis;
  elements_rev : Netlist.element list; (* as bound, for [rebind]'s check *)
  (* constant tier: resistors + voltage-source incidence, summed when
     the plan is bound *)
  static_vals : float array;
  models : Model.t array; (* per MOSFET, as [an.fets] *)
  (* source waves, element order; [rebind] rewrites them in place *)
  vs_waves : Source.t array;
  is_waves : Source.t array;
  (* workspace *)
  a : Sparse.t;
  a0 : float array; (* cached linear tier of the matrix values *)
  b0 : float array; (* cached linear tier of the RHS *)
  rhs : float array;
  x : float array;
  x_new : float array;
  last : float array;
  lin : Mna.fet_lin;
  ws : Level1.workspace;
  mutable lu : Sparse.lu option; (* None: the next factorization is a solve's first *)
  mutable first : (float array * Sparse.lu) option;
      (* the latest first factorization and the matrix values at x = 0 it factored *)
  zero : float array; (* x = 0, where a solve's first pivot order comes from *)
  held_a : float array; (* a solve's own first matrix and RHS, held while *)
  held_rhs : float array; (* the matrix at x = 0 is assembled *)
}

let n t = t.an.n
let matrix t = t.a
let rhs t = t.rhs
let x_buffer t = t.x
let x_new_buffer t = t.x_new
let zero t = t.zero
let last_buffer t = t.last

(* the slots, rows and static incidence of a netlist's structure; the
   factorization at x = 0 is left to [analyze] *)
let structure netlist =
  Lattice_obs.Metrics.Counter.incr compiles_counter;
  let n = Netlist.unknowns netlist in
  let nnodes = Netlist.num_nodes netlist in
  (* newest first: consing while walking it lists in element order *)
  let elements_rev = Netlist.elements_rev netlist in
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
    elements_rev;
  let pattern = Sparse.Builder.compile b in
  let slot r c = if r >= 0 && c >= 0 then Sparse.slot pattern ~row:r ~col:c else -1 in
  (* a voltage source's entries lie in its branch row and column, which
     no resistor touches, so summing them apart from the resistors keeps
     the bits of summing everything in element order *)
  let vs_static = Array.make (Sparse.nnz pattern) 0.0 in
  let res = ref [] in
  let fets = ref [] in
  let caps = ref [] in
  let vsrcs = ref [] in
  let isrcs = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Resistor { n1; n2; _ } ->
        let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
        let s12 = if i1 >= 0 && i2 >= 0 then slot i1 i2 else -1 in
        let s21 = if i1 >= 0 && i2 >= 0 then slot i2 i1 else -1 in
        res := slot i1 i1 :: slot i2 i2 :: s12 :: s21 :: !res
      | Netlist.Capacitor { n1; n2; _ } ->
        let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
        caps := (i1, i2, slot i1 i1, slot i2 i2, slot i1 i2, slot i2 i1) :: !caps
      | Netlist.Vsource { npos; nneg; index; _ } ->
        let row = Netlist.vsource_row netlist index in
        let ip = Netlist.node_index npos and ineg = Netlist.node_index nneg in
        if ip >= 0 then begin
          vs_static.(slot ip row) <- vs_static.(slot ip row) +. 1.0;
          vs_static.(slot row ip) <- vs_static.(slot row ip) +. 1.0
        end;
        if ineg >= 0 then begin
          vs_static.(slot ineg row) <- vs_static.(slot ineg row) -. 1.0;
          vs_static.(slot row ineg) <- vs_static.(slot row ineg) -. 1.0
        end;
        vsrcs := row :: !vsrcs
      | Netlist.Isource { npos; nneg; _ } ->
        isrcs := (Netlist.node_index npos, Netlist.node_index nneg) :: !isrcs
      | Netlist.Mosfet { drain; gate; source; _ } ->
        let d = Netlist.node_index drain
        and g = Netlist.node_index gate
        and s = Netlist.node_index source in
        fets :=
          {
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
    elements_rev;
  let caps = Array.of_list !caps in
  let isrcs = Array.of_list !isrcs in
  {
    n;
    nnodes;
    shape_rev = elements_rev;
    pattern;
    vs_static;
    res_slots = Array.of_list !res;
    diag_slots = Array.init nnodes (fun i -> slot i i);
    fets = Array.of_list !fets;
    cap_i1 = Array.map (fun (i1, _, _, _, _, _) -> i1) caps;
    cap_i2 = Array.map (fun (_, i2, _, _, _, _) -> i2) caps;
    cap_s11 = Array.map (fun (_, _, s11, _, _, _) -> s11) caps;
    cap_s22 = Array.map (fun (_, _, _, s22, _, _) -> s22) caps;
    cap_s12 = Array.map (fun (_, _, _, _, s12, _) -> s12) caps;
    cap_s21 = Array.map (fun (_, _, _, _, _, s21) -> s21) caps;
    vs_rows = Array.of_list !vsrcs;
    is_pos = Array.map fst isrcs;
    is_neg = Array.map snd isrcs;
    first = None;
  }

(* [b] stamps the MNA system [a] does, up to values, models and source
   waves *)
let same_shape (a : Netlist.element) (b : Netlist.element) =
  a == b
  ||
  match (a, b) with
  | Netlist.Resistor a, Netlist.Resistor b -> a.n1 = b.n1 && a.n2 = b.n2
  | Netlist.Capacitor a, Netlist.Capacitor b -> a.n1 = b.n1 && a.n2 = b.n2
  | Netlist.Vsource a, Netlist.Vsource b -> a.npos = b.npos && a.nneg = b.nneg && a.index = b.index
  | Netlist.Isource a, Netlist.Isource b -> a.npos = b.npos && a.nneg = b.nneg
  | Netlist.Mosfet a, Netlist.Mosfet b ->
    a.drain = b.drain && a.gate = b.gate && a.source = b.source
  | (Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _), _
    -> false

let fits an netlist =
  Netlist.unknowns netlist = an.n
  && Netlist.num_nodes netlist = an.nnodes
  && List.equal same_shape an.shape_rev (Netlist.elements_rev netlist)

(* A plan over [an] for a netlist that fits it: one pass over the
   elements, newest first, takes the resistor conductances, the models
   and the source waves; the conductances are then summed in element
   order, as a fresh compile sums them *)
let bind an netlist ~first =
  let nres = Array.length an.res_slots / 4 in
  let g = Array.make nres 0.0 in
  (* consing while walking newest first lists the rest in element order *)
  let rec take r models vs is = function
    | [] -> (models, vs, is)
    | Netlist.Resistor { ohms; _ } :: rest ->
      g.(r - 1) <- 1.0 /. ohms;
      take (r - 1) models vs is rest
    | Netlist.Mosfet { model; _ } :: rest -> take r (model :: models) vs is rest
    | Netlist.Vsource { wave; _ } :: rest -> take r models (wave :: vs) is rest
    | Netlist.Isource { wave; _ } :: rest -> take r models vs (wave :: is) rest
    | Netlist.Capacitor _ :: rest -> take r models vs is rest
  in
  let elements_rev = Netlist.elements_rev netlist in
  let models, vs_waves, is_waves = take nres [] [] [] elements_rev in
  let static_vals = Array.copy an.vs_static in
  let add s v = static_vals.(s) <- static_vals.(s) +. v in
  for k = 0 to nres - 1 do
    let gk = g.(k) and rs = an.res_slots in
    let s11 = rs.(4 * k) and s22 = rs.((4 * k) + 1) and s12 = rs.((4 * k) + 2) in
    if s11 >= 0 then add s11 gk;
    if s22 >= 0 then add s22 gk;
    if s12 >= 0 then begin
      add s12 (-.gk);
      add rs.((4 * k) + 3) (-.gk)
    end
  done;
  let n = an.n and nnz = Sparse.nnz an.pattern in
  {
    an;
    elements_rev;
    static_vals;
    models = Array.of_list models;
    vs_waves = Array.of_list vs_waves;
    is_waves = Array.of_list is_waves;
    a = Sparse.create an.pattern;
    a0 = Array.make nnz 0.0;
    b0 = Array.make n 0.0;
    rhs = Array.make n 0.0;
    x = Array.make n 0.0;
    x_new = Array.make n 0.0;
    last = Array.make n 0.0;
    lin = Mna.fet_lin_create ();
    ws = Level1.workspace_create ();
    lu = None;
    first;
    zero = Array.make n 0.0;
    held_a = Array.make nnz 0.0;
    held_rhs = Array.make n 0.0;
  }

let instantiate an netlist =
  if not (fits an netlist) then
    invalid_arg "Stamp_plan.instantiate: the netlist's structure differs from the analyzed one";
  bind an netlist ~first:(Option.map (fun (values, lu) -> (values, Sparse.share lu)) an.first)

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
  let elements_rev = Netlist.elements_rev netlist in
  if
    not
      (Netlist.unknowns netlist = t.an.n
      && Netlist.num_nodes netlist = t.an.nnodes
      && List.equal same_but_wave t.elements_rev elements_rev)
  then invalid_arg "Stamp_plan.rebind: the netlist's structure differs from the compiled plan's";
  (* newest first, so the sources count down from the last one *)
  let rec waves v i = function
    | [] -> ()
    | Netlist.Vsource { wave; _ } :: rest ->
      t.vs_waves.(v - 1) <- wave;
      waves (v - 1) i rest
    | Netlist.Isource { wave; _ } :: rest ->
      t.is_waves.(i - 1) <- wave;
      waves v (i - 1) rest
    | (Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Mosfet _) :: rest -> waves v i rest
  in
  waves (Array.length t.vs_waves) (Array.length t.is_waves) elements_rev;
  t.lu <- None

let set_linear t ~time ~gmin ~gshunt ~source_scale ~caps =
  let an = t.an and a0 = t.a0 and b0 = t.b0 in
  Array.blit t.static_vals 0 a0 0 (Array.length a0);
  Array.fill b0 0 an.n 0.0;
  if gshunt > 0.0 then
    for i = 0 to an.nnodes - 1 do
      let s = an.diag_slots.(i) in
      a0.(s) <- a0.(s) +. gshunt
    done;
  (* gmin across every MOSFET's drain-source pair *)
  for k = 0 to Array.length an.fets - 1 do
    let f = an.fets.(k) in
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
    for k = 0 to Array.length an.cap_i1 - 1 do
      let g = geq.(k) in
      if an.cap_s11.(k) >= 0 then a0.(an.cap_s11.(k)) <- a0.(an.cap_s11.(k)) +. g;
      if an.cap_s22.(k) >= 0 then a0.(an.cap_s22.(k)) <- a0.(an.cap_s22.(k)) +. g;
      if an.cap_s12.(k) >= 0 then begin
        a0.(an.cap_s12.(k)) <- a0.(an.cap_s12.(k)) -. g;
        a0.(an.cap_s21.(k)) <- a0.(an.cap_s21.(k)) -. g
      end;
      (* companion current flows out of n1 into n2 *)
      let i = ieq.(k) in
      if an.cap_i1.(k) >= 0 then b0.(an.cap_i1.(k)) <- b0.(an.cap_i1.(k)) -. i;
      if an.cap_i2.(k) >= 0 then b0.(an.cap_i2.(k)) <- b0.(an.cap_i2.(k)) +. i
    done);
  for k = 0 to Array.length an.vs_rows - 1 do
    let row = an.vs_rows.(k) in
    b0.(row) <- b0.(row) +. (source_scale *. Source.value t.vs_waves.(k) time)
  done;
  for k = 0 to Array.length an.is_pos - 1 do
    let i = source_scale *. Source.value t.is_waves.(k) time in
    if an.is_pos.(k) >= 0 then b0.(an.is_pos.(k)) <- b0.(an.is_pos.(k)) -. i;
    if an.is_neg.(k) >= 0 then b0.(an.is_neg.(k)) <- b0.(an.is_neg.(k)) +. i
  done

let assemble t ~x =
  let v = t.a.Sparse.values in
  Array.blit t.a0 0 v 0 (Array.length v);
  Array.blit t.b0 0 t.rhs 0 t.an.n;
  let rhs = t.rhs in
  let lin = t.lin in
  let ws = t.ws in
  let fets = t.an.fets and models = t.models in
  for k = 0 to Array.length fets - 1 do
    let f = fets.(k) in
    let vd = if f.f_d < 0 then 0.0 else x.(f.f_d) in
    let vg = if f.f_g < 0 then 0.0 else x.(f.f_g) in
    let vs = if f.f_s < 0 then 0.0 else x.(f.f_s) in
    lin.Mna.vd <- vd;
    lin.Mna.vg <- vg;
    lin.Mna.vs <- vs;
    Mna.linearize_fet ws lin models.(k);
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

let analyze ~gmin netlist =
  let an = structure netlist in
  (* the matrix a DC solve's plain rung assembles at x = 0, on a plan
     made for it alone *)
  let p = bind an netlist ~first:None in
  set_linear p ~time:0.0 ~gmin ~gshunt:0.0 ~source_scale:1.0 ~caps:None;
  assemble p ~x:p.zero;
  match Sparse.factorize p.a with
  | lu -> { an with first = Some (p.a.Sparse.values, lu) }
  | exception Sparse.Singular _ -> an

(* a plan's own first solve factors its matrix at x = 0, at whatever
   gmin the solve runs *)
let compile netlist = bind (structure netlist) netlist ~first:None

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
    Array.blit t.rhs 0 t.held_rhs 0 t.an.n;
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
    Array.blit t.held_rhs 0 t.rhs 0 t.an.n;
    if at_zero then lu else Sparse.refactor_or_factorize lu t.a

let factor_and_solve t =
  (match t.lu with
  | None -> t.lu <- Some (first_factorization t)
  | Some lu ->
    (* a fresh analysis only when the frozen pivot order went stale, so
       the common path allocates nothing *)
    let lu' = Sparse.refactor_or_factorize lu t.a in
    if lu' != lu then t.lu <- Some lu');
  match t.lu with
  | Some lu -> Sparse.solve_in_place lu t.rhs
  | None -> assert false

let lu_stats t = match t.lu with None -> None | Some lu -> Some (Sparse.lu_nnz lu)
