module Sparse = Lattice_numerics.Sparse

type point = { freq_hz : float; magnitude : float; phase_deg : float }

type response = { points : point list; dc_gain : float }

(* Susceptance entries of every capacitor as flat (row, col, farads)
   triples, with the signs of the usual conductance stamp folded in. *)
let b_entries netlist =
  let out = ref [] in
  List.iter
    (function
      | Netlist.Capacitor { n1; n2; farads = f; _ } ->
        let i1 = Netlist.node_index n1 and i2 = Netlist.node_index n2 in
        let add r c coef = if r >= 0 && c >= 0 then out := (r, c, coef) :: !out in
        add i1 i1 f;
        add i2 i2 f;
        add i1 i2 (-.f);
        add i2 i1 (-.f)
      | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _ | Netlist.Mosfet _ -> ())
    (Netlist.elements netlist);
  !out

(* The augmented pattern is built once; each frequency blits the cached
   G blocks, writes the scaled B slots, and reuses the elimination
   pattern of the first factorization (numeric refactor). *)
let solver netlist plan ~x_op =
  let n = Stamp_plan.n plan in
  Stamp_plan.set_linear plan ~time:0.0 ~gmin:Dcop.default_options.Dcop.gmin_final ~gshunt:0.0
    ~source_scale:1.0 ~caps:None;
  Stamp_plan.assemble plan ~x:x_op;
  let g = Stamp_plan.matrix plan in
  let builder = Sparse.Builder.create (2 * n) in
  Sparse.iteri g (fun _ r c _ ->
      Sparse.Builder.add builder r c;
      Sparse.Builder.add builder (n + r) (n + c));
  let bents = Array.of_list (b_entries netlist) in
  Array.iter
    (fun (r, c, _) ->
      Sparse.Builder.add builder r (n + c);
      Sparse.Builder.add builder (n + r) c)
    bents;
  let pat = Sparse.Builder.compile builder in
  let aug = Sparse.create pat in
  Sparse.iteri g (fun _ r c v ->
      Sparse.add aug r c v;
      Sparse.add aug (n + r) (n + c) v);
  (* template holding the two G blocks with every B slot at zero *)
  let aug0 = Array.copy aug.Sparse.values in
  let nb = Array.length bents in
  let bslot_top = Array.make nb 0 in
  let bslot_bot = Array.make nb 0 in
  let bcoef = Array.make nb 0.0 in
  Array.iteri
    (fun k (r, c, coef) ->
      bslot_top.(k) <- Sparse.slot pat ~row:r ~col:(n + c);
      bslot_bot.(k) <- Sparse.slot pat ~row:(n + r) ~col:c;
      bcoef.(k) <- coef)
    bents;
  let lu = ref None in
  let rhs = Array.make (2 * n) 0.0 in
  fun ~w ~source_row ->
    let values = aug.Sparse.values in
    Array.blit aug0 0 values 0 (Array.length aug0);
    for k = 0 to nb - 1 do
      let y = bcoef.(k) *. w in
      values.(bslot_top.(k)) <- values.(bslot_top.(k)) -. y;
      values.(bslot_bot.(k)) <- values.(bslot_bot.(k)) +. y
    done;
    Array.fill rhs 0 (2 * n) 0.0;
    rhs.(source_row) <- 1.0;
    let f =
      match !lu with
      | None ->
        let f = Sparse.factorize aug in
        lu := Some f;
        f
      | Some f ->
        (* the frozen pivot order can go numerically stale as w grows *)
        let f = Sparse.refactor_or_factorize f aug in
        lu := Some f;
        f
    in
    Sparse.solve_in_place f rhs;
    rhs

let sweep netlist ~source ~output ~f_start ~f_stop ~points_per_decade =
  if f_start <= 0.0 || f_stop <= f_start then invalid_arg "Ac.sweep: bad frequency range";
  if points_per_decade < 1 then invalid_arg "Ac.sweep: need at least 1 point per decade";
  let source_row =
    match Netlist.vsource_index netlist source with
    | Some idx -> Netlist.vsource_row netlist idx
    | None -> invalid_arg ("Ac.sweep: unknown source " ^ source)
  in
  let out_index =
    match Netlist.find_node netlist output with
    | Some n -> Netlist.node_index n
    | None -> invalid_arg ("Ac.sweep: unknown node " ^ output)
  in
  if out_index < 0 then invalid_arg "Ac.sweep: output is ground";
  let plan = Stamp_plan.compile netlist in
  let x_op = Dcop.solve ~plan netlist in
  let n = Netlist.unknowns netlist in
  let solver = solver netlist plan ~x_op in
  let solve_at freq =
    let w = 2.0 *. Float.pi *. freq in
    let x = solver ~w ~source_row in
    let re = x.(out_index) and im = x.(n + out_index) in
    {
      freq_hz = freq;
      magnitude = sqrt ((re *. re) +. (im *. im));
      phase_deg = Float.atan2 im re *. 180.0 /. Float.pi;
    }
  in
  let decades = log10 (f_stop /. f_start) in
  let npoints = Int.max 2 (1 + int_of_float (Float.round (decades *. float_of_int points_per_decade))) in
  let points =
    List.init npoints (fun i ->
        let t = float_of_int i /. float_of_int (npoints - 1) in
        solve_at (f_start *. (10.0 ** (decades *. t))))
  in
  let dc_gain = match points with p :: _ -> p.magnitude | [] -> 0.0 in
  { points; dc_gain }

let arrays response =
  let fs = Array.of_list (List.map (fun p -> p.freq_hz) response.points) in
  let mags = Array.of_list (List.map (fun p -> p.magnitude) response.points) in
  let phases = Array.of_list (List.map (fun p -> p.phase_deg) response.points) in
  (fs, mags, phases)

let f_3db response =
  let fs, mags, _ = arrays response in
  Lattice_numerics.Interp.first_crossing fs mags (response.dc_gain /. sqrt 2.0)

let phase_at response f =
  let fs, _, phases = arrays response in
  Lattice_numerics.Interp.lookup fs phases f
