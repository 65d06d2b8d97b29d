type node = int

type element =
  | Resistor of { name : string; n1 : node; n2 : node; ohms : float }
  | Capacitor of { name : string; n1 : node; n2 : node; farads : float }
  | Vsource of { name : string; npos : node; nneg : node; wave : Source.t; index : int }
  | Isource of { name : string; npos : node; nneg : node; wave : Source.t }
  | Mosfet of {
      name : string;
      drain : node;
      gate : node;
      source : node;
      model : Lattice_mosfet.Model.t;
    }

(* What the content key needs of a netlist that its input states share:
   the digest of everything [structural_digest] covers except
   voltage-source waves, and the first-mention node order both use. *)
type memo = { wave_free : Digest.t; canon : int array }

type t = {
  mutable names : (string, node) Hashtbl.t;
  mutable node_names : string array;  (* grows; index = node id *)
  mutable own_tables : bool;
      (* false while [names] and [node_names] may be shared with a
         rebound copy: the next node creation copies them first *)
  mutable next_node : int;
  mutable elements_rev : element list;
  mutable nvsrc : int;
  mutable fresh_counter : int;
  mutable memo : memo option;  (* dropped by every mutation *)
}

let ground = 0

let create () =
  let names = Hashtbl.create 64 in
  Hashtbl.replace names "0" ground;
  {
    names;
    node_names = Array.make 16 "0";
    own_tables = true;
    next_node = 1;
    elements_rev = [];
    nvsrc = 0;
    fresh_counter = 0;
    memo = None;
  }

let store_name t id name =
  if id >= Array.length t.node_names then begin
    let bigger = Array.make (2 * (id + 1)) "" in
    Array.blit t.node_names 0 bigger 0 (Array.length t.node_names);
    t.node_names <- bigger
  end;
  t.node_names.(id) <- name

let node t name =
  let name = if name = "gnd" || name = "GND" then "0" else name in
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
    if not t.own_tables then begin
      t.names <- Hashtbl.copy t.names;
      t.node_names <- Array.copy t.node_names;
      t.own_tables <- true
    end;
    let id = t.next_node in
    t.next_node <- id + 1;
    Hashtbl.replace t.names name id;
    store_name t id name;
    t.memo <- None;
    id

let find_node t name =
  let name = if name = "gnd" || name = "GND" then "0" else name in
  Hashtbl.find_opt t.names name

let fresh_node t prefix =
  t.fresh_counter <- t.fresh_counter + 1;
  node t (Printf.sprintf "%s#%d" prefix t.fresh_counter)

let add t e =
  t.elements_rev <- e :: t.elements_rev;
  t.memo <- None

let check_value what v = if not (Float.is_finite v) || v <= 0.0 then
    invalid_arg (Printf.sprintf "Netlist: %s must be positive and finite (got %g)" what v)

let resistor t name n1 n2 ohms =
  check_value "resistance" ohms;
  add t (Resistor { name; n1; n2; ohms })

let capacitor t name n1 n2 farads =
  check_value "capacitance" farads;
  add t (Capacitor { name; n1; n2; farads })

let vsource t name npos nneg wave =
  let index = t.nvsrc in
  t.nvsrc <- index + 1;
  add t (Vsource { name; npos; nneg; wave; index })

let isource t name npos nneg wave = add t (Isource { name; npos; nneg; wave })

let mosfet_model t name ~drain ~gate ~source model =
  add t (Mosfet { name; drain; gate; source; model })

let num_nodes t = t.next_node - 1
let num_vsources t = t.nvsrc
let unknowns t = num_nodes t + num_vsources t
let elements t = List.rev t.elements_rev
let elements_rev t = t.elements_rev

let node_name t n =
  if n < 0 || n >= t.next_node then invalid_arg "Netlist.node_name: unknown node";
  t.node_names.(n)

let all_node_names t =
  Array.init (t.next_node - 1) (fun i -> t.node_names.(i + 1))

let node_index n = n - 1

let vsource_row t index = num_nodes t + index

let vsource_index t name =
  let rec find = function
    | [] -> None
    | Vsource { name = n; index; _ } :: _ when n = name -> Some index
    | (Vsource _ | Resistor _ | Capacitor _ | Isource _ | Mosfet _) :: rest -> find rest
  in
  find (elements t)

(* Canonical binary serialization for content addressing. Floats are
   hashed by their IEEE-754 bit pattern — formatting them at limited
   precision would alias distinct circuits, e.g. two Monte-Carlo Vth
   perturbations 1e-12 V apart. *)
let digest_int b i = Buffer.add_int64_le b (Int64.of_int i)
let digest_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let digest_string b s =
  digest_int b (String.length s);
  Buffer.add_string b s

let digest_level1 b (p : Lattice_mosfet.Level1.params) =
  digest_float b p.Lattice_mosfet.Level1.kp;
  digest_float b p.Lattice_mosfet.Level1.vth;
  digest_float b p.Lattice_mosfet.Level1.lambda;
  digest_float b p.Lattice_mosfet.Level1.w;
  digest_float b p.Lattice_mosfet.Level1.l

let digest_model b = function
  | Lattice_mosfet.Model.L1 p ->
    Buffer.add_char b '1';
    digest_level1 b p
  | Lattice_mosfet.Model.L3 p3 ->
    Buffer.add_char b '3';
    digest_level1 b p3.Lattice_mosfet.Level3.base;
    digest_float b p3.Lattice_mosfet.Level3.theta;
    digest_float b p3.Lattice_mosfet.Level3.vc

let digest_wave b = function
  | Source.Dc v ->
    Buffer.add_char b 'D';
    digest_float b v
  | Source.Pulse { v1; v2; delay; rise; fall; width; period } ->
    Buffer.add_char b 'P';
    List.iter (digest_float b) [ v1; v2; delay; rise; fall; width; period ]
  | Source.Pwl points ->
    Buffer.add_char b 'W';
    digest_int b (List.length points);
    List.iter
      (fun (time, v) ->
        digest_float b time;
        digest_float b v)
      points
  | Source.Sin { offset; amplitude; freq; delay; damping } ->
    Buffer.add_char b 'S';
    List.iter (digest_float b) [ offset; amplitude; freq; delay; damping ]

let digest_element b ~canon ~vwaves e =
  let node n = digest_int b canon.(n) in
  match e with
  | Resistor { name; n1; n2; ohms } ->
    Buffer.add_char b 'R';
    digest_string b name;
    node n1;
    node n2;
    digest_float b ohms
  | Capacitor { name; n1; n2; farads } ->
    Buffer.add_char b 'C';
    digest_string b name;
    node n1;
    node n2;
    digest_float b farads
  | Vsource { name; npos; nneg; wave; index } ->
    Buffer.add_char b 'V';
    digest_string b name;
    node npos;
    node nneg;
    digest_int b index;
    if vwaves then digest_wave b wave
  | Isource { name; npos; nneg; wave } ->
    Buffer.add_char b 'I';
    digest_string b name;
    node npos;
    node nneg;
    digest_wave b wave
  | Mosfet { name; drain; gate; source; model } ->
    Buffer.add_char b 'M';
    digest_string b name;
    node drain;
    node gate;
    node source;
    digest_model b model

(* Node ids are renumbered by first mention in element order before
   hashing.  Raw ids depend on *creation* order, which differs between a
   programmatic builder (nodes interleaved with construction) and a deck
   parser (nodes appear as element cards reference them); first-mention
   order is identical whenever the element lists are, so the digest — and
   with it every engine cache key — survives the export→parse boundary.
   [canon.(n)] is node [n]'s canonical id; nodes no element mentions
   follow the mentioned ones in id order, so [canon] is a permutation. *)
let canonical_nodes t els =
  let canon = Array.make t.next_node (-1) in
  canon.(ground) <- 0;
  let next = ref 0 in
  let touch n =
    if canon.(n) < 0 then begin
      incr next;
      canon.(n) <- !next
    end
  in
  List.iter
    (function
      | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } ->
        touch n1;
        touch n2
      | Vsource { npos; nneg; _ } | Isource { npos; nneg; _ } ->
        touch npos;
        touch nneg
      | Mosfet { drain; gate; source; _ } ->
        touch drain;
        touch gate;
        touch source)
    els;
  for n = 1 to t.next_node - 1 do
    touch n
  done;
  canon

(* the one serializer: [structural_digest] hashes it with voltage-source
   waves, the memo's wave-free digest without them *)
let serialize t els ~canon ~vwaves =
  let b = Buffer.create 4096 in
  digest_int b (num_nodes t);
  digest_int b (num_vsources t);
  List.iter (digest_element b ~canon ~vwaves) els;
  Buffer.contents b

(* Racing fills on one netlist compute and store equal values. *)
let memo t =
  match t.memo with
  | Some m -> m
  | None ->
    let els = elements t in
    let canon = canonical_nodes t els in
    let m = { wave_free = Digest.string (serialize t els ~canon ~vwaves:false); canon } in
    t.memo <- Some m;
    m

let wave_free_digest t = (memo t).wave_free

let add_vsource_waves b t =
  (* [elements_rev] is newest first, so consing while walking it yields
     element order *)
  List.fold_left
    (fun acc e ->
      match e with
      | Vsource { wave; _ } -> wave :: acc
      | Resistor _ | Capacitor _ | Isource _ | Mosfet _ -> acc)
    [] t.elements_rev
  |> List.iter (digest_wave b)

let structural_digest t =
  let els = elements t in
  Digest.to_hex (Digest.string (serialize t els ~canon:(canonical_nodes t els) ~vwaves:true))

let check_size t x =
  if Array.length x <> unknowns t then invalid_arg "Netlist: vector length is not the MNA size"

let to_canonical_order t x =
  check_size t x;
  let canon = (memo t).canon in
  let y = Array.copy x in
  for n = 1 to num_nodes t do
    y.(canon.(n) - 1) <- x.(n - 1)
  done;
  y

let of_canonical_order t y =
  check_size t y;
  let canon = (memo t).canon in
  let x = Array.copy y in
  for n = 1 to num_nodes t do
    x.(n - 1) <- y.(canon.(n) - 1)
  done;
  x

(* A copy of [t] with other elements that shares [t]'s node tables until
   either netlist creates a node. The flag is written only while it is
   still set, so copies made at once from a netlist already shared, as
   the jobs of several domains make them from a nominal circuit, only
   read it. *)
let share_tables t elements_rev memo =
  if t.own_tables then t.own_tables <- false;
  { t with own_tables = false; elements_rev; memo }

let rebind_vsources t wave_of =
  let memo = Some (memo t) in
  let rebind e =
    match e with
    | Vsource ({ name; _ } as v) -> (
      match wave_of name with Some wave -> Vsource { v with wave } | None -> e)
    | Resistor _ | Capacitor _ | Isource _ | Mosfet _ -> e
  in
  share_tables t (List.map rebind t.elements_rev) memo

let rebind_models t model_of =
  let nfets =
    List.fold_left
      (fun k e -> match e with Mosfet _ -> k + 1 | Resistor _ | Capacitor _ | Vsource _ | Isource _ -> k)
      0 t.elements_rev
  in
  (* newest first, so the MOSFETs count down from the last one; the
     elements older than the first MOSFET are shared *)
  let[@tail_mod_cons] rec swap k l =
    if k < 0 then l
    else
      match l with
      | [] -> []
      | Mosfet m :: rest -> Mosfet { m with model = model_of k } :: swap (k - 1) rest
      | ((Resistor _ | Capacitor _ | Vsource _ | Isource _) as e) :: rest -> e :: swap k rest
  in
  share_tables t (swap (nfets - 1) t.elements_rev) None
