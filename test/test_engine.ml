(* Tests for the parallel batch-simulation engine: the Domain pool's
   index-merge determinism, the content-addressed cache and its key
   soundness, DC-op memoization, and seed-split RNG streams. *)

module Engine = Lattice_engine.Engine
module Pool = Lattice_engine.Pool
module Cache = Lattice_engine.Cache
module Key = Lattice_engine.Key
module Sp = Lattice_spice
module Mos = Lattice_mosfet
module Tt = Lattice_boolfn.Truthtable

(* --- pool ---------------------------------------------------------------- *)

let done_values out =
  Array.map (function Pool.Done v -> v | _ -> Alcotest.fail "job not done") out

let test_pool_parity () =
  (* the pool's merged output must equal Array.init at any domain count *)
  let f i = (i * i) + 7 in
  let expected = Array.init 33 f in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains" domains)
        expected
        (done_values (Pool.map_outcomes pool ~n:33 f)))
    [ 1; 2; 4 ]

let test_pool_exception () =
  (* Engine.map unwraps the outcomes: the lowest-index failure surfaces
     as a Failure carrying the job exception's printed form *)
  List.iter
    (fun domains ->
      let e = Engine.create ~domains () in
      Alcotest.check_raises
        (Printf.sprintf "failure propagates (%d domains)" domains)
        (Failure (Printexc.to_string (Failure "job 3 boom")))
        (fun () ->
          ignore
            (Engine.map e ~n:8 (fun i ->
                 if i = 3 then failwith "job 3 boom"
                 else if i = 5 then failwith "job 5 boom"
                 else i))))
    [ 1; 2; 4 ]

let test_pool_invalid () =
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

(* --- cache --------------------------------------------------------------- *)

let test_cache_counters () =
  let c = Cache.create ~capacity:8 () in
  Alcotest.(check (option int)) "miss on empty" None (Cache.find c ~key:"a");
  Cache.add c ~key:"a" 1;
  Alcotest.(check (option int)) "hit after add" (Some 1) (Cache.find c ~key:"a");
  Cache.add c ~key:"a" 99;
  Alcotest.(check (option int)) "first write wins" (Some 1) (Cache.find c ~key:"a");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "size" 1 s.Cache.size

let test_cache_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~key:"a" 1;
  Cache.add c ~key:"b" 2;
  Cache.add c ~key:"c" 3;
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size stays at capacity" 2 s.Cache.size;
  (* nothing was found, so second chance is FIFO: the oldest entry went *)
  Alcotest.(check (option int)) "oldest evicted" None (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Cache.find c ~key:"c")

let test_cache_second_chance () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~key:"a" 1;
  Cache.add c ~key:"b" 2;
  Alcotest.(check (option int)) "a found" (Some 1) (Cache.find c ~key:"a");
  Cache.add c ~key:"c" 3;
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  (* a was found since it was inserted: the hand spares it and takes b *)
  Alcotest.(check (option int)) "found entry kept" (Some 1) (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "unfound entry evicted" None (Cache.find c ~key:"b");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Cache.find c ~key:"c");
  (* the hand cleared a's mark in passing; a and c were found again since,
     so the hand clears both and takes a, the older *)
  Cache.add c ~key:"d" 4;
  Alcotest.(check (list string)) "one pass, then the oldest"
    [ "c"; "d" ]
    (List.filter (fun k -> Cache.find c ~key:k <> None) [ "a"; "b"; "c"; "d" ])

let test_second_chance_table () =
  let module Sc = Cache.Second_chance in
  let t = Sc.create ~capacity:3 in
  List.iter (fun k -> Alcotest.(check (option int)) "no eviction" None (Sc.add t k k)) [ 1; 2; 3 ];
  ignore (Sc.find t 1);
  ignore (Sc.find t 3);
  Alcotest.(check (option int)) "the first unfound entry goes" (Some 2) (Sc.add t 4 4);
  Alcotest.(check (list int)) "a passed entry requeued behind the hand" [ 3; 1; 4 ] (Sc.keys t);
  (* 3 is still marked; 1's mark was cleared when the hand passed it *)
  Alcotest.(check (option int)) "a cleared mark protects no more" (Some 1) (Sc.add t 5 5);
  Alcotest.(check (list int)) "hand order" [ 4; 3; 5 ] (Sc.keys t);
  Alcotest.(check int) "bounded" 3 (Sc.length t);
  Alcotest.check_raises "a present key is refused"
    (Invalid_argument "Cache.Second_chance.add: key present") (fun () ->
      ignore (Sc.add t 5 5))

(* --- cache keys ---------------------------------------------------------- *)

let build_netlist ?(config = Sp.Lattice_circuit.default_config) ?(m = 0) grid =
  let vdd = config.Sp.Lattice_circuit.vdd in
  let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then vdd else 0.0) in
  (Sp.Lattice_circuit.build ~config grid ~stimulus).Sp.Lattice_circuit.netlist

let bump_vth eps = function
  | Mos.Model.L1 p -> Mos.Model.L1 { p with Mos.Level1.vth = p.Mos.Level1.vth +. eps }
  | Mos.Model.L3 p3 ->
    Mos.Model.L3
      {
        p3 with
        Mos.Level3.base =
          { p3.Mos.Level3.base with Mos.Level1.vth = p3.Mos.Level3.base.Mos.Level1.vth +. eps };
      }

let test_key_soundness () =
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  (* two independent builds of the same circuit: identical key *)
  let k1 = Key.dc_op (build_netlist grid) in
  let k2 = Key.dc_op (build_netlist grid) in
  Alcotest.(check string) "identical builds share a key" k1 k2;
  (* a different input state is a different circuit *)
  let k_m1 = Key.dc_op (build_netlist ~m:1 grid) in
  Alcotest.(check bool) "input state changes the key" false (String.equal k1 k_m1);
  (* a one-ulp-scale device-parameter change must change the key: the
     digest covers exact IEEE-754 bits, not a formatted rounding *)
  let config = Sp.Lattice_circuit.default_config in
  let types = config.Sp.Lattice_circuit.types in
  let perturbed =
    {
      config with
      Sp.Lattice_circuit.types =
        { types with Sp.Fts.type_a = bump_vth 1e-9 types.Sp.Fts.type_a };
    }
  in
  let k_eps = Key.dc_op (build_netlist ~config:perturbed grid) in
  Alcotest.(check bool) "1e-9 vth shift changes the key" false (String.equal k1 k_eps);
  (* an injected defect changes the key *)
  let defective =
    let stimulus _ = Sp.Source.Dc 0.0 in
    (Sp.Defects.build
       ~defects:[ { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_open } ]
       grid ~stimulus)
      .Sp.Lattice_circuit.netlist
  in
  Alcotest.(check bool) "defect changes the key" false
    (String.equal k1 (Key.dc_op defective));
  (* same netlist, any one solver option changed: distinct keys. The
     record pattern names every field, so a new option does not compile
     here until it has a row. *)
  let d = Sp.Dcop.default_options in
  let {
    Sp.Dcop.max_iterations;
    abstol;
    reltol;
    gmin_final;
    gmin_steps;
    source_steps;
    damping;
  } =
    d
  in
  List.iter
    (fun (field, options) ->
      Alcotest.(check bool)
        (field ^ " changes the key")
        false
        (String.equal k1 (Key.dc_op ~options (build_netlist grid))))
    [
      ("max_iterations", { d with max_iterations = max_iterations + 1 });
      ("abstol", { d with abstol = 2.0 *. abstol });
      ("reltol", { d with reltol = 2.0 *. reltol });
      ("gmin_final", { d with gmin_final = 2.0 *. gmin_final });
      ("gmin_steps", { d with gmin_steps = List.map (fun g -> 2.0 *. g) gmin_steps });
      ("source_steps", { d with source_steps = source_steps + 1 });
      ("damping", { d with damping = damping /. 2.0 });
    ]

(* --- key equivalence against the v1 key ------------------------------------- *)

(* The v1 key, kept as the oracle of the two-level key: the structural
   digest hashed with every solver option. *)
let oracle_key ?(options = Sp.Dcop.default_options) netlist =
  let b = Buffer.create 192 in
  let int i = Buffer.add_int64_le b (Int64.of_int i) in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let string s =
    int (String.length s);
    Buffer.add_string b s
  in
  let o = options in
  string "dcop-v1";
  int o.Sp.Dcop.max_iterations;
  float o.Sp.Dcop.abstol;
  float o.Sp.Dcop.reltol;
  float o.Sp.Dcop.gmin_final;
  int (List.length o.Sp.Dcop.gmin_steps);
  List.iter float o.Sp.Dcop.gmin_steps;
  int o.Sp.Dcop.source_steps;
  float o.Sp.Dcop.damping;
  string (Sp.Netlist.structural_digest netlist);
  Digest.to_hex (Digest.string (Buffer.contents b))

type key_case = { label : string; options : Sp.Dcop.options; net : Sp.Netlist.t }

let case ?(options = Sp.Dcop.default_options) label net = { label; options; net }

(* Keys are equal exactly when oracle keys are: each oracle key maps to
   one key and each key to one oracle key. The cases must hold both
   equal and distinct pairs. *)
let check_key_equivalence what cases =
  let by_oracle = Hashtbl.create 1024 and by_key = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      let o = oracle_key ~options:c.options c.net in
      let k = Key.dc_op ~options:c.options c.net in
      (match Hashtbl.find_opt by_oracle o with
      | Some (k', l') when k' <> k ->
        Alcotest.failf "%s / %s: equal oracle keys, different keys" c.label l'
      | Some _ -> ()
      | None -> Hashtbl.replace by_oracle o (k, c.label));
      match Hashtbl.find_opt by_key k with
      | Some (o', l') when o' <> o ->
        Alcotest.failf "%s / %s: equal keys, different oracle keys" c.label l'
      | Some _ -> ()
      | None -> Hashtbl.replace by_key k (o, c.label))
    cases;
  let classes = Hashtbl.length by_oracle and n = List.length cases in
  Alcotest.(check bool) (Printf.sprintf "%s: %d cases hold equal pairs" what n) true (classes < n);
  Alcotest.(check bool) (Printf.sprintf "%s: %d cases hold distinct keys" what n) true (classes > 1)

let deck_round_trip net =
  let deck = Lattice_deck.Deck.of_netlist ~title:"key" net in
  match Lattice_deck.Deck.parse (Lattice_deck.Deck.emit deck) with
  | Ok d -> d.Lattice_deck.Deck.netlist
  | Error e -> Alcotest.failf "round trip: %s" (Lattice_deck.Deck.error_to_string e)

(* A netlist as data, so one field can be changed at a time. Nodes are
   named; [build_spec ~precreate] creates nodes in a given order first,
   which changes raw node ids but not the circuit. *)
type spec_el =
  | R of string * string * string * float
  | C of string * string * string * float
  | V of string * string * string * Sp.Source.t
  | I of string * string * string * Sp.Source.t
  | M of string * string * string * string * Mos.Model.t

let build_spec ?(precreate = []) spec =
  let net = Sp.Netlist.create () in
  List.iter (fun n -> ignore (Sp.Netlist.node net n)) precreate;
  let node = Sp.Netlist.node net in
  List.iter
    (function
      | R (name, a, b, v) -> Sp.Netlist.resistor net name (node a) (node b) v
      | C (name, a, b, v) -> Sp.Netlist.capacitor net name (node a) (node b) v
      | V (name, a, b, w) -> Sp.Netlist.vsource net name (node a) (node b) w
      | I (name, a, b, w) -> Sp.Netlist.isource net name (node a) (node b) w
      | M (name, d, g, s, m) ->
        Sp.Netlist.mosfet_model net name ~drain:(node d) ~gate:(node g) ~source:(node s) m)
    spec;
  net

let spec_nodes spec =
  List.concat_map
    (function
      | R (_, a, b, _) | C (_, a, b, _) | V (_, a, b, _) | I (_, a, b, _) -> [ a; b ]
      | M (_, d, g, s, _) -> [ d; g; s ])
    spec
  |> List.sort_uniq compare

let l1 = { Mos.Level1.kp = 17.7e-6; vth = 0.155; lambda = 0.05; w = 0.7e-6; l = 0.35e-6 }

let pulse =
  Sp.Source.Pulse
    { v1 = 0.0; v2 = 1.2; delay = 1e-9; rise = 1e-10; fall = 2e-10; width = 5e-9; period = 1e-8 }

let pwl = Sp.Source.Pwl [ (0.0, 0.0); (1e-9, 1.2); (2e-9, 0.6) ]
let sine = Sp.Source.Sin { offset = 0.6; amplitude = 0.3; freq = 1e6; delay = 1e-9; damping = 1e3 }

(* every element kind and every wave form *)
let hand_spec =
  [
    V ("dd", "vdd", "0", Sp.Source.Dc 1.2);
    R ("pull", "vdd", "out", 5e5);
    C ("load", "out", "0", 1e-14);
    V ("p", "g1", "0", pulse);
    V ("w", "g2", "0", pwl);
    V ("s", "g3", "0", sine);
    I ("leak", "out", "0", Sp.Source.Dc 1e-9);
    I ("kick", "0", "mid", pwl);
    M ("a", "out", "g1", "mid", Mos.Model.L1 l1);
    M ("b", "mid", "g2", "0", Mos.Model.L3 (Mos.Level3.of_level1 l1));
    R ("shunt", "mid", "g3", 1e6);
  ]

let bump = Float.succ

let wave_mutations w =
  let open Sp.Source in
  let fields =
    match w with
    | Dc v -> [ Dc (bump v); Dc (-.v) ]
    | Pulse p ->
      [
        Pulse { p with v1 = bump p.v1 };
        Pulse { p with v2 = bump p.v2 };
        Pulse { p with delay = bump p.delay };
        Pulse { p with rise = bump p.rise };
        Pulse { p with fall = bump p.fall };
        Pulse { p with width = bump p.width };
        Pulse { p with period = bump p.period };
      ]
    | Pwl pts ->
      List.concat
        (List.mapi
           (fun i _ ->
             [
               Pwl (List.mapi (fun j (t, v) -> if i = j then (bump t, v) else (t, v)) pts);
               Pwl (List.mapi (fun j (t, v) -> if i = j then (t, bump v) else (t, v)) pts);
             ])
           pts)
      @ [ Pwl (List.filteri (fun j _ -> j > 0) pts); Pwl (pts @ [ (1.0, 0.0) ]) ]
    | Sin s ->
      [
        Sin { s with offset = bump s.offset };
        Sin { s with amplitude = bump s.amplitude };
        Sin { s with freq = bump s.freq };
        Sin { s with delay = bump s.delay };
        Sin { s with damping = bump s.damping };
      ]
  in
  fields @ [ Dc 0.3; pulse; pwl; sine ]

let level1_mutations (p : Mos.Level1.params) =
  Mos.Level1.
    [
      { p with kp = bump p.kp };
      { p with vth = bump p.vth };
      { p with lambda = bump p.lambda };
      { p with w = bump p.w };
      { p with l = bump p.l };
    ]

let model_mutations = function
  | Mos.Model.L1 p ->
    List.map (fun p -> Mos.Model.L1 p) (level1_mutations p) @ [ Mos.Model.L3 (Mos.Level3.of_level1 p) ]
  | Mos.Model.L3 p3 ->
    List.map
      (fun base -> Mos.Model.L3 { p3 with Mos.Level3.base })
      (level1_mutations p3.Mos.Level3.base)
    @ [
        Mos.Model.L3 { p3 with Mos.Level3.theta = bump p3.Mos.Level3.theta };
        Mos.Model.L3 { p3 with Mos.Level3.vc = bump p3.Mos.Level3.vc };
        Mos.Model.L1 p3.Mos.Level3.base;
      ]

(* each element with one field changed: name, value, wave, model, or a
   node (swapped with another terminal or moved to a new node) *)
let element_mutations = function
  | R (n, a, b, v) -> [ R (n ^ "2", a, b, v); R (n, b, a, v); R (n, a, "x", v); R (n, a, b, bump v) ]
  | C (n, a, b, v) -> [ C (n ^ "2", a, b, v); C (n, b, a, v); C (n, a, "x", v); C (n, a, b, bump v) ]
  | V (n, a, b, w) ->
    [ V (n ^ "2", a, b, w); V (n, b, a, w); V (n, a, "x", w) ]
    @ List.map (fun w -> V (n, a, b, w)) (wave_mutations w)
  | I (n, a, b, w) ->
    [ I (n ^ "2", a, b, w); I (n, b, a, w); I (n, a, "x", w) ]
    @ List.map (fun w -> I (n, a, b, w)) (wave_mutations w)
  | M (n, d, g, s, m) ->
    [
      M (n ^ "2", d, g, s, m);
      M (n, g, d, s, m);
      M (n, d, s, g, m);
      M (n, s, g, d, m);
      M (n, d, g, "x", m);
    ]
    @ List.map (fun m -> M (n, d, g, s, m)) (model_mutations m)

let spec_mutations spec =
  let arr = Array.of_list spec in
  let n = Array.length arr in
  let replaced =
    List.concat
      (List.init n (fun i ->
           List.map
             (fun e ->
               let a = Array.copy arr in
               a.(i) <- e;
               Array.to_list a)
             (element_mutations arr.(i))))
  in
  let swapped =
    List.init (n - 1) (fun i ->
        let a = Array.copy arr in
        a.(i) <- arr.(i + 1);
        a.(i + 1) <- arr.(i);
        Array.to_list a)
  in
  replaced @ swapped

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* every one-field mutation of the hand netlist, each built twice (the
   second time with its nodes created in a random order) *)
let mutation_cases st =
  List.concat
    (List.mapi
       (fun i spec ->
         let label = Printf.sprintf "mutation %d" i in
         [
           case label (build_spec spec);
           case (label ^ " renumbered")
             (build_spec ~precreate:(shuffle st (spec_nodes spec)) spec);
         ])
       (hand_spec :: spec_mutations hand_spec))

let random_grid st =
  let rows = 1 + Random.State.int st 3 and cols = 1 + Random.State.int st 3 in
  let nvars = 1 + Random.State.int st 3 in
  Lattice_core.Grid.create rows cols
    (Array.init (rows * cols) (fun _ ->
         if Random.State.int st 6 = 0 then Lattice_core.Grid.Const (Random.State.bool st)
         else Lattice_core.Grid.Lit (Random.State.int st nvars, Random.State.bool st)))

(* Random lattices, dies, defects and states, each built twice, rebound
   from another state, and round-tripped through deck text. *)
let lattice_cases st k =
  let grid = random_grid st in
  let nstates = 1 lsl Lattice_core.Grid.nvars grid in
  let cols = grid.Lattice_core.Grid.cols in
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let nominal = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.types in
  let die =
    if Random.State.bool st then None
    else
      let types =
        Array.init (Lattice_core.Grid.size grid) (fun _ ->
            if Random.State.int st 4 = 0 then nominal
            else
              let type_a = bump_vth (Random.State.float st 0.03) nominal.Sp.Fts.type_a in
              { nominal with Sp.Fts.type_a })
      in
      Some (fun r c -> types.((r * cols) + c))
  in
  let defects =
    match Sp.Defects.single_defects grid with
    | [] -> []
    | singles ->
      let singles = Array.of_list singles in
      List.init (Random.State.int st 2) (fun _ -> singles.(Random.State.int st (Array.length singles)))
  in
  let stimulus = Sp.Lattice_circuit.state_stimulus ~vdd in
  let build m = Sp.Defects.build ?types_of_site:die ~defects grid ~stimulus:(stimulus m) in
  let m = Random.State.int st nstates and m' = Random.State.int st nstates in
  let label =
    Printf.sprintf "lattice %d (%dx%d, %d defects, state %d)" k grid.Lattice_core.Grid.rows cols
      (List.length defects) m
  in
  let lc = build m in
  let rebound = Sp.Lattice_circuit.rebind (build m') ~stimulus:(stimulus m) in
  let other = Sp.Lattice_circuit.rebind lc ~stimulus:(stimulus m') in
  let net = lc.Sp.Lattice_circuit.netlist in
  [
    case label net;
    case (label ^ " rebuilt") (build m).Sp.Lattice_circuit.netlist;
    case (label ^ " rebound from state " ^ string_of_int m') rebound.Sp.Lattice_circuit.netlist;
    case (label ^ " rebound to state " ^ string_of_int m') other.Sp.Lattice_circuit.netlist;
    case (label ^ " deck") (deck_round_trip net);
    case (label ^ " rebound deck") (deck_round_trip other.Sp.Lattice_circuit.netlist);
  ]

(* every solver option changed alone, and the defaults rebuilt field by
   field *)
let options_cases () =
  let d = Sp.Dcop.default_options in
  let options =
    [
      d;
      { d with Sp.Dcop.max_iterations = d.Sp.Dcop.max_iterations };
      { d with Sp.Dcop.max_iterations = d.Sp.Dcop.max_iterations + 1 };
      { d with Sp.Dcop.abstol = bump d.Sp.Dcop.abstol };
      { d with Sp.Dcop.reltol = bump d.Sp.Dcop.reltol };
      { d with Sp.Dcop.gmin_final = bump d.Sp.Dcop.gmin_final };
      { d with Sp.Dcop.gmin_steps = [] };
      { d with Sp.Dcop.gmin_steps = d.Sp.Dcop.gmin_steps @ [ 1e-13 ] };
      { d with Sp.Dcop.source_steps = d.Sp.Dcop.source_steps + 1 };
      { d with Sp.Dcop.damping = bump d.Sp.Dcop.damping };
    ]
  in
  let nets =
    [
      ("hand", fun () -> build_spec hand_spec);
      ("maj3", fun () -> build_netlist Lattice_synthesis.Library.maj3_2x3);
    ]
  in
  List.concat_map
    (fun (name, net) ->
      List.mapi (fun i options -> case ~options (Printf.sprintf "%s options %d" name i) (net ()))
        options)
    nets

let test_key_equivalence () =
  let st = Random.State.make [| 16 |] in
  check_key_equivalence "one-field mutations" (mutation_cases st);
  check_key_equivalence "random lattices" (List.concat (List.init 40 (lattice_cases st)));
  check_key_equivalence "options table" (options_cases ());
  check_key_equivalence "all together"
    (mutation_cases st @ List.concat (List.init 10 (lattice_cases st)) @ options_cases ())

(* After a key is taken, each mutation must move it to the key of a fresh
   netlist built by the same sequence; a rebound copy and its source keep
   their own keys whichever of them changes. *)
let test_key_memo_invalidation () =
  let module N = Sp.Netlist in
  let gnd = N.ground in
  let steps =
    [
      ("node", fun net -> ignore (N.node net "late"));
      ("fresh_node", fun net -> ignore (N.fresh_node net "tmp"));
      ("resistor", fun net -> N.resistor net "late" (N.node net "out") gnd 1e3);
      ("capacitor", fun net -> N.capacitor net "late" (N.node net "out") gnd 1e-15);
      ("vsource", fun net -> N.vsource net "late" (N.node net "mid") gnd (Sp.Source.Dc 0.1));
      ("isource", fun net -> N.isource net "late" (N.node net "mid") gnd (Sp.Source.Dc 1e-9));
      ( "mosfet",
        fun net ->
          N.mosfet_model net "late" ~drain:(N.node net "out") ~gate:(N.node net "g1") ~source:gnd
            (Mos.Model.L1 l1) );
      ( "mosfet_model",
        fun net ->
          N.mosfet_model net "late" ~drain:(N.node net "out") ~gate:(N.node net "g2") ~source:gnd
            (Mos.Model.L3 (Mos.Level3.of_level1 l1)) );
    ]
  in
  let fresh step =
    let net = build_spec hand_spec in
    step net;
    Key.dc_op net
  in
  let k0 = Key.dc_op (build_spec hand_spec) in
  List.iter
    (fun (what, step) ->
      let net = build_spec hand_spec in
      Alcotest.(check string) (what ^ ": key before") k0 (Key.dc_op net);
      step net;
      let k = Key.dc_op net in
      Alcotest.(check string) (what ^ " after a key = a fresh build's key") (fresh step) k;
      Alcotest.(check bool) (what ^ " changed the key") false (String.equal k0 k);
      (* the rebound copy carries the memo; mutating either side leaves
         the other alone *)
      let src = build_spec hand_spec in
      let at w = Sp.Netlist.rebind_vsources src (fun name -> if name = "dd" then Some w else None) in
      let copy = at (Sp.Source.Dc 1.0) in
      let k_copy = Key.dc_op copy in
      let reference =
        hand_spec
        |> List.map (function V ("dd", a, b, _) -> V ("dd", a, b, Sp.Source.Dc 1.0) | e -> e)
        |> build_spec |> Key.dc_op
      in
      Alcotest.(check string) (what ^ ": rebound copy = fresh build") reference k_copy;
      step src;
      Alcotest.(check string) (what ^ " on the source leaves the copy") k_copy (Key.dc_op copy);
      Alcotest.(check string) (what ^ " on the source after the copy") (fresh step) (Key.dc_op src);
      let src = build_spec hand_spec in
      let k_src = Key.dc_op src in
      let copy = Sp.Netlist.rebind_vsources src (fun _ -> None) in
      Alcotest.(check string) (what ^ ": unchanged copy shares the key") k_src (Key.dc_op copy);
      step copy;
      Alcotest.(check string) (what ^ " on the copy leaves the source") k_src (Key.dc_op src);
      Alcotest.(check string) (what ^ " on the copy") (fresh step) (Key.dc_op copy))
    steps

(* --- dc_op memoization ---------------------------------------------------- *)

let test_dc_op_memoized () =
  let e = Engine.create ~domains:1 () in
  let netlist = build_netlist Lattice_synthesis.Library.maj3_2x3 in
  let r1 = Engine.dc_op e netlist in
  let t1 = Engine.telemetry e in
  Alcotest.(check int) "one real solve" 1 t1.Engine.dc_solves;
  Alcotest.(check int) "one miss" 1 t1.Engine.cache.Cache.misses;
  Alcotest.(check bool) "newton iterations counted" true (t1.Engine.newton_total > 0);
  let r2 = Engine.dc_op e netlist in
  let t2 = Engine.telemetry e in
  Alcotest.(check int) "still one real solve" 1 t2.Engine.dc_solves;
  Alcotest.(check int) "second call is a hit" 1 t2.Engine.cache.Cache.hits;
  (match (r1, r2) with
  | Ok (x1, d1), Ok (x2, d2) ->
    Alcotest.(check (array (float 0.0))) "bit-identical solution" x1 x2;
    Alcotest.(check int) "diagnostics replayed verbatim" d1.Sp.Dcop.newton_iterations
      d2.Sp.Dcop.newton_iterations;
    (* the hit hands out a private copy: mutating it must not poison the
       cache *)
    x2.(0) <- 1234.5;
    (match Engine.dc_op e netlist with
    | Ok (x3, _) -> Alcotest.(check (float 0.0)) "cache entry unharmed" x1.(0) x3.(0)
    | Error _ -> Alcotest.fail "third solve failed")
  | _ -> Alcotest.fail "maj3 dc op should converge")

(* every Newton step moves a node by at most 0.05 V, so the 10 iterations
   of a rung cannot lift the supply node to 1.2 V: plain Newton and gmin
   stepping fail, and the damped rung, with 40 iterations, wins *)
let leaves_plain = { Sp.Dcop.default_options with Sp.Dcop.max_iterations = 10; damping = 0.05 }

let diode_load () =
  let ckt = Sp.Netlist.create () in
  let vdd = Sp.Netlist.node ckt "vdd" and d = Sp.Netlist.node ckt "d" in
  Sp.Netlist.vsource ckt "V1" vdd Sp.Netlist.ground (Sp.Source.Dc 1.2);
  Sp.Netlist.resistor ckt "R1" vdd d 10e3;
  Sp.Netlist.mosfet_model ckt "M1" ~drain:d ~gate:d ~source:Sp.Netlist.ground (Mos.Model.L1 l1);
  ckt

let test_failed_rungs_counted () =
  (* the engine counts a solve's every attempt in newton_iterations and
     every attempt but the winner in newton_failed_rungs — all of them
     when the ladder fails; a hit counts nothing *)
  let e = Engine.create ~domains:1 ~store_dir:"" () in
  let counts () =
    let t = Engine.telemetry e in
    (t.Engine.newton_total, t.Engine.newton_failed_rungs)
  in
  let sum = List.fold_left (fun acc (_, k) -> acc + k) 0 in
  (match Engine.dc_op e ~options:leaves_plain (diode_load ()) with
  | Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)
  | Ok (_, d) ->
    Alcotest.(check bool) "the solve left plain Newton" true (d.Sp.Dcop.strategy <> Sp.Dcop.Plain);
    let failed, winner =
      match List.rev d.Sp.Dcop.attempts with
      | (_, k) :: rest -> (sum rest, k)
      | [] -> Alcotest.fail "no attempt recorded"
    in
    Alcotest.(check bool) "failed rungs spent iterations" true (failed > 0);
    Alcotest.(check int) "the winner's iterations are the rest" d.Sp.Dcop.newton_iterations
      (failed + winner);
    Alcotest.(check (pair int int)) "counted: every attempt, the failed ones"
      (d.Sp.Dcop.newton_iterations, failed) (counts ()));
  let before = counts () in
  ignore (Engine.dc_op e ~options:leaves_plain (diode_load ()));
  Alcotest.(check (pair int int)) "a hit counts nothing" before (counts ());
  let hopeless = { Sp.Dcop.default_options with Sp.Dcop.max_iterations = 1; damping = 1e-6 } in
  match Engine.dc_op e ~options:hopeless (diode_load ()) with
  | Ok _ -> Alcotest.fail "expected every strategy to fail"
  | Error f ->
    let spent = sum f.Sp.Dcop.attempts in
    Alcotest.(check (pair int int)) "a failed solve: every attempt failed"
      (fst before + spent, snd before + spent)
      (counts ())

let test_seeded_keys () =
  (* a seeded solve's key names its seed: it is never the unseeded key of
     the same netlist, two seeds give two keys, and equal seeds give equal
     keys; the unseeded key is still the one a deck round trip hits *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let net = build_netlist ~m:1 grid in
  let nominal m = Key.dc_op (build_netlist ~m grid) in
  let unseeded = Key.dc_op net in
  let seeded m = Key.dc_op ~seed:(nominal m) net in
  Alcotest.(check bool) "seeded <> unseeded" true (seeded 1 <> unseeded && seeded 0 <> unseeded);
  Alcotest.(check bool) "two seeds, two keys" true (seeded 0 <> seeded 1);
  Alcotest.(check string) "one seed, one key" (seeded 0)
    (Key.dc_op ~seed:(nominal 0) (build_netlist ~m:1 grid));
  Alcotest.(check string) "a deck round trip hits the unseeded entry" unseeded
    (Key.dc_op (deck_round_trip net))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Keys of dcop-v5 as released: stores written before a change are read
   after it only while these hold, so a change that moves one must move
   {!Key.version} with it and update the pins. *)
let pinned_keys =
  [
    ("nominal maj3 2x3, state 3", "2eee3dccd1fef0df57d1b2240c795dec");
    ("Monte-Carlo die 0 of seed 1, state 3", "9eb58d9683d53336a274543d5d37e27c");
    ("stuck-open (0, 0) sample, state 3", "f4ad102b3260b9dd871bd7fc05257efb");
    ("examples/decks/xor3.sp .op", "d35705799347687df7193b770a40dbf9");
  ]

let test_pinned_keys () =
  Alcotest.(check string) "key version" "dcop-v5" Key.version;
  let pin what = List.assoc what pinned_keys in
  let grid = Lattice_synthesis.Library.maj3_2x3 and target = Tt.majority_n 3 in
  let nominal = Key.dc_op (build_netlist ~m:3 grid) in
  Alcotest.(check string) "nominal" (pin "nominal maj3 2x3, state 3") nominal;
  let stuck_open = { Sp.Defects.row = 0; col = 0; kind = Sp.Defects.Stuck_open } in
  let sample =
    Sp.Defects.build ~defects:[ stuck_open ] grid
      ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd:1.2 3)
  in
  Alcotest.(check string) "stuck-open sample" (pin "stuck-open (0, 0) sample, state 3")
    (Key.dc_op ~seed:nominal sample.Sp.Lattice_circuit.netlist);
  let deck =
    match
      Lattice_deck.Deck.parse
        (In_channel.with_open_bin "../examples/decks/xor3.sp" In_channel.input_all)
    with
    | Ok d -> d
    | Error _ -> Alcotest.fail "xor3.sp does not parse"
  in
  Alcotest.(check string) "xor3.sp .op" (pin "examples/decks/xor3.sp .op")
    (Key.dc_op deck.Lattice_deck.Deck.netlist);
  (* the flows write their solutions under those keys *)
  let dir = Filename.temp_dir "ftl-pinned" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let engine = Engine.create ~domains:1 ~store_dir:dir () in
  ignore (Lattice_flow.Monte_carlo.run ~engine ~samples:1 ~seed:1 grid ~target);
  ignore (Lattice_flow.Fault_campaign.run ~engine ~universe:[ stuck_open ] grid ~target);
  let store = Lattice_engine.Store.open_ ~dir:(Filename.concat dir Key.version) in
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " written") true
        (Sys.file_exists (Lattice_engine.Store.entry_path store ~key:(pin what))))
    [
      "nominal maj3 2x3, state 3";
      "Monte-Carlo die 0 of seed 1, state 3";
      "stuck-open (0, 0) sample, state 3";
    ]

let test_resident_dc_op () =
  (* the memory-only lookup counts a hit and nothing else: no miss, no
     solve, no store read *)
  let dir = Filename.temp_dir "ftl-resident" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let netlist = build_netlist ~m:5 Lattice_synthesis.Library.maj3_2x3 in
  let full =
    match Engine.dc_op (Engine.create ~domains:1 ~store_dir:dir ()) netlist with
    | Ok r -> r
    | Error _ -> Alcotest.fail "maj3 dc op should converge"
  in
  (* a fresh engine over the filled store: memory is cold *)
  let e = Engine.create ~domains:1 ~store_dir:dir () in
  (* hits, misses, solves, store lookups *)
  let counts () =
    let t = Engine.telemetry e in
    let st = Option.get t.Engine.store in
    [
      t.Engine.cache.Cache.hits;
      t.Engine.cache.Cache.misses;
      t.Engine.dc_solves;
      st.Lattice_engine.Store.hits + st.Lattice_engine.Store.misses;
    ]
  in
  let module Metrics = Lattice_obs.Metrics in
  let req_counts = Metrics.Scope.create () in
  let req_hits = Metrics.Scope.counter req_counts "cache_hits" in
  let req_solves = Metrics.Scope.counter req_counts "dc_solves" in
  let request = Metrics.Request.make req_counts in
  let resident () = Metrics.Request.with_ request (fun () -> Engine.resident_dc_op e netlist) in
  Alcotest.(check bool) "memory miss: nothing" true (resident () = None);
  Alcotest.(check (list int)) "a miss counts nothing, reads no store" [ 0; 0; 0; 0 ] (counts ());
  ignore (Engine.dc_op e netlist);  (* promotes the store's entry into memory *)
  Alcotest.(check (list int)) "the full lookup hit the store" [ 1; 0; 0; 1 ] (counts ());
  (match resident () with
  | Some (Ok (x, d)) ->
    Alcotest.(check (array (float 0.0))) "same solution bits" (fst full) x;
    Alcotest.(check int) "diagnostics replayed" (snd full).Sp.Dcop.newton_iterations
      d.Sp.Dcop.newton_iterations
  | _ -> Alcotest.fail "resident entry not found");
  Alcotest.(check (list int)) "a hit counts one hit, no miss, no solve, no store read"
    [ 2; 0; 0; 1 ] (counts ());
  Alcotest.(check int) "the hit is attributed to the caller's context" 1
    (Metrics.Scope.get req_hits);
  Alcotest.(check int) "no solve attributed" 0 (Metrics.Scope.get req_solves)

(* the store lives under <dir>/dcop-v5/: a later key version starts a
   fresh tree beside it, and the old one can be removed whole *)
let test_store_root_names_key_version () =
  let dir = Filename.temp_dir "ftl-store-root" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let e = Engine.create ~domains:1 ~store_dir:dir () in
  Alcotest.(check (option string)) "store_dir is the directory given" (Some dir) (Engine.store_dir e);
  Alcotest.(check string) "the key version names the root" "dcop-v5" Key.version;
  ignore
    (Lattice_flow.Monte_carlo.run ~engine:e ~samples:2 ~seed:1 Lattice_synthesis.Library.maj3_2x3
       ~target:(Lattice_boolfn.Truthtable.majority_n 3));
  let writes = (Option.get (Engine.telemetry e).Engine.store).Lattice_engine.Store.writes in
  Alcotest.(check bool) "the yield wrote entries" true (writes > 0);
  Alcotest.(check (list string)) "only the versioned root at the top" [ "dcop-v5" ]
    (Array.to_list (Sys.readdir dir));
  let rec files path =
    if Sys.is_directory path then
      List.concat_map (fun f -> files (Filename.concat path f)) (Array.to_list (Sys.readdir path))
    else [ path ]
  in
  Alcotest.(check int) "every entry under dcop-v5" writes
    (List.length (files (Filename.concat dir "dcop-v5")))

let test_engine_map_and_phases () =
  let e = Engine.create ~domains:2 () in
  let out = Engine.map e ~phase:"square" ~n:10 (fun i -> i * i) in
  Alcotest.(check (array int)) "map merges by index" (Array.init 10 (fun i -> i * i)) out;
  let t = Engine.telemetry e in
  Alcotest.(check int) "jobs counted" 10 t.Engine.jobs;
  Alcotest.(check bool) "phase recorded" true (List.mem_assoc "square" t.Engine.phases);
  Alcotest.(check bool) "summary renders" true
    (String.length (Engine.summary e) > 20)

let test_default_engine_env () =
  (* Engine.create () respects FTL_DOMAINS (CI runs the suite at 1 and 4);
     whatever the count, results stay bit-identical to serial *)
  let e = Engine.create () in
  Alcotest.(check bool) "at least one domain" true (Engine.domains e >= 1);
  (match Sys.getenv_opt "FTL_DOMAINS" with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> Alcotest.(check int) "FTL_DOMAINS honored" n (Engine.domains e)
    | _ -> ())
  | None -> ());
  let f i = float_of_int i /. 3.0 in
  Alcotest.(check (array (float 0.0))) "default engine parity" (Array.init 17 f)
    (Engine.map e ~n:17 f)

(* --- sample_rng ------------------------------------------------------------ *)

let test_sample_rng_streams () =
  let first seed index = Random.State.float (Engine.sample_rng ~seed ~index) 1.0 in
  (* pure in (seed, index) *)
  Alcotest.(check (float 0.0)) "reproducible" (first 42 7) (first 42 7);
  (* distinct indices give distinct streams *)
  let draws = Array.init 16 (fun i -> first 42 i) in
  let distinct =
    Array.for_all
      (fun x -> Array.length (Array.of_seq (Seq.filter (Float.equal x) (Array.to_seq draws))) = 1)
      draws
  in
  Alcotest.(check bool) "16 index streams all distinct" true distinct;
  (* distinct seeds give distinct streams *)
  Alcotest.(check bool) "seed matters" false (Float.equal (first 1 0) (first 2 0))

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "index-merge parity" `Quick test_pool_parity;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "invalid domain count" `Quick test_pool_invalid;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_cache_counters;
          Alcotest.test_case "FIFO eviction" `Quick test_cache_eviction;
          Alcotest.test_case "second-chance eviction" `Quick test_cache_second_chance;
          Alcotest.test_case "second-chance table" `Quick test_second_chance_table;
        ] );
      ( "keys",
        [
          Alcotest.test_case "content-key soundness" `Quick test_key_soundness;
          Alcotest.test_case "equal exactly when the v1 keys are" `Quick test_key_equivalence;
          Alcotest.test_case "memo dropped by every mutation" `Quick test_key_memo_invalidation;
          Alcotest.test_case "a seeded key names its seed" `Quick test_seeded_keys;
          Alcotest.test_case "pinned dcop-v5 keys" `Quick test_pinned_keys;
        ] );
      ( "engine",
        [
          Alcotest.test_case "dc_op memoization" `Quick test_dc_op_memoized;
          Alcotest.test_case "resident_dc_op: a hit or nothing" `Quick test_resident_dc_op;
          Alcotest.test_case "newton iterations in failed rungs" `Quick test_failed_rungs_counted;
          Alcotest.test_case "store root names the key version" `Quick
            test_store_root_names_key_version;
          Alcotest.test_case "map + phase telemetry" `Quick test_engine_map_and_phases;
          Alcotest.test_case "FTL_DOMAINS default" `Quick test_default_engine_env;
          Alcotest.test_case "seed-split rng streams" `Quick test_sample_rng_streams;
        ] );
    ]
