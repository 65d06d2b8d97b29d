(* Tests for the SPICE deck interop subsystem (lib/deck): lexer/parser
   error reporting, emitter idempotence, digest stability across the
   text boundary, and deck-vs-programmatic engine parity. *)

module Sp = Lattice_spice
module Deck = Lattice_deck.Deck
module Runner = Lattice_deck.Runner

let parse_ok src =
  match Deck.parse src with
  | Ok d -> d
  | Error e -> Alcotest.failf "unexpected parse error %s" (Deck.error_to_string e)

let parse_err src =
  match Deck.parse src with
  | Ok _ -> Alcotest.failf "deck unexpectedly parsed:\n%s" src
  | Error e -> e

(* --- corpus ------------------------------------------------------------- *)

(* small hand decks exercising each card type; the larger on-disk corpus
   in examples/decks/ is covered by the roundtrip test below *)
let corpus =
  [
    ( "divider",
      "divider\nv1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n.op\n.end\n" );
    ( "continuations and comments",
      "* title line\n\
       r1 a 0 1k ; inline\n\
       V1 a 0 PULSE(0 1\n\
       + 0 1n 1n\n\
       + 5n 10n)\n\
       * full-line comment\n\
       .tran 1n 10n $ another\n\
       .print tran v(a)\n\
       .end\n" );
    ( "mosfet with model",
      "inv\n\
       .model mn nmos (level=1 kp=17.7u vto=155m lambda=0.05)\n\
       vdd vdd 0 dc 1.2\n\
       vin in 0 dc 0.6\n\
       rl vdd out 500k\n\
       m1 out in 0 0 mn w=0.7u l=0.35u\n\
       .op\n\
       .dc vin 0 1.2 0.3\n\
       .print v(out)\n\
       .end\n" );
    ( "subckt flattening",
      "ladder\n\
       .subckt stage in out r=1k c=1n\n\
       rs in out {r}\n\
       cs out 0 {c}\n\
       .ends\n\
       vin src 0 dc 1 ac 1\n\
       x1 src mid stage\n\
       x2 mid out stage r=2k\n\
       .ac dec 5 1 1meg\n\
       .print ac v(out)\n\
       .end\n" );
    ( "sin source and current source",
      "sin\nvs a 0 sin(0.6 0.5 1meg 1n 1k)\nis 0 b 1m\nrb b 0 1k\nra a 0 1k\n.op\n.end\n" );
    ( "pwl and level 3",
      "pwl\n\
       .model m3 nmos (level=3 kp=20u vto=0.2 kappa=0.04 theta=0.12 vmax=1.2e5)\n\
       vg g 0 pwl(0 0 1u 1.2)\n\
       vd d 0 dc 1.2\n\
       m1 d g 0 0 m3 w=1u l=0.5u\n\
       .op\n\
       .end\n" );
  ]

let disk_corpus () =
  (* dune copies the deps next to the test binary; skip quietly if a
     deck is absent so the unit tests do not depend on example layout *)
  List.filter_map
    (fun f ->
      let path = Filename.concat "../examples/decks" f in
      if Sys.file_exists path then
        Some (f, In_channel.with_open_bin path In_channel.input_all)
      else None)
    [ "inverter.sp"; "xor3.sp"; "rc_ladder.sp"; "lattice_4x4.sp" ]

let test_roundtrip_idempotent () =
  List.iter
    (fun (name, src) ->
      let d = parse_ok src in
      let once = Deck.emit d in
      let d2 =
        match Deck.parse once with
        | Ok d2 -> d2
        | Error e ->
          Alcotest.failf "%s: canonical form fails to reparse: %s" name
            (Deck.error_to_string e)
      in
      let twice = Deck.emit d2 in
      Alcotest.(check string) (name ^ ": emit is a fixed point") once twice;
      Alcotest.(check string)
        (name ^ ": digest survives the text boundary")
        (Sp.Netlist.structural_digest d.Deck.netlist)
        (Sp.Netlist.structural_digest d2.Deck.netlist))
    (corpus @ disk_corpus ())

let test_emitter_deterministic () =
  let src = snd (List.nth corpus 2) in
  let a = Deck.emit (parse_ok src) in
  let b = Deck.emit (parse_ok src) in
  Alcotest.(check string) "same deck emits identical bytes" a b

(* --- parse errors -------------------------------------------------------- *)

let test_parse_error_table () =
  let cases =
    [
      (* (description, deck, expected line, expected col, substring) *)
      ("empty", "", 1, 1, "title");
      ("continuation first", "t\n+ r1 a 0 1k\n.end\n", 2, 1, "nothing to continue");
      ("unknown card", "t\n.quux 1 2\n.end\n", 2, 1, "unknown card");
      ("unsupported element", "t\nq1 a b c\n.end\n", 2, 1, "unsupported card");
      ("bad node on m", "t\n.model mn nmos (level=1)\nm1 out in 0 vdd mn\n.end\n", 3, 13, "bulk");
      ("duplicate element", "t\nr1 a 0 1k\nr1 a 0 2k\n.end\n", 3, 1, "duplicate element");
      ("unterminated subckt", "t\n.subckt s a b\nr1 a b 1k\n.end\n", 2, 1, ".ends");
      ("nested subckt", "t\n.subckt s a b\n.subckt t a b\n.ends\n.ends\n.end\n", 3, 1, "nested");
      ("unknown model", "t\nm1 d g 0 0 nosuch\n.end\n", 2, 12, "unknown model");
      ("bad value", "t\nr1 a 0 12q3\n.end\n", 2, 8, "value");
      ("dc of unknown source", "t\nr1 a 0 1k\n.dc vx 0 1 0.1\n.end\n", 3, 5, "unknown voltage source");
      ("dc zero step", "t\nv1 a 0 dc 1\nr1 a 0 1k\n.dc v1 0 1 0\n.end\n", 4, 12, "step");
      ("tran bad stop", "t\nr1 a 0 1k\n.tran 1n 0\n.end\n", 3, 10, "positive");
      ("print unknown node", "t\nr1 a 0 1k\n.print v(b)\n.end\n", 3, 10, "unknown node");
      ("ac without source", "t\nr1 a 0 1k\n.ac dec 10 1 1k\n.end\n", 3, 1, "AC source");
      ("unterminated paren", "t\nv1 a 0 pulse(0 1 0 1n 1n 5n 10n\n.end\n", 2, 8, "')'");
      ("missing .end is fine", "t\nr1 a 0 1k\n", 0, 0, "");
    ]
  in
  List.iter
    (fun (what, src, line, col, sub) ->
      if line = 0 then ignore (parse_ok src)
      else begin
        let e = parse_err src in
        Alcotest.(check int) (what ^ ": line") line e.Deck.line;
        Alcotest.(check int) (what ^ ": col") col e.Deck.col;
        let lower_msg = String.lowercase_ascii e.Deck.msg in
        let lower_sub = String.lowercase_ascii sub in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          nn = 0 || go 0
        in
        if not (contains lower_msg lower_sub) then
          Alcotest.failf "%s: message %S lacks %S" what e.Deck.msg sub
      end)
    cases

(* a deck whose X cards expand past the caps is refused at the top-level
   card that expands them, before it is elaborated in full *)
let test_elaboration_caps () =
  (* 4,096 resistors and as many unknowns *)
  let e = parse_err (Oracle.nested_deck ~internal:true 11) in
  Alcotest.(check (pair int int)) "unknown cap: at the X card" (4 * 12 + 3, 1) (e.Deck.line, e.Deck.col);
  Alcotest.(check string) "unknown cap: message" "deck elaborates to more than 2048 unknowns" e.Deck.msg;
  (* 131,072 resistors between two nodes *)
  let e = parse_err (Oracle.nested_deck ~internal:false 16) in
  Alcotest.(check (pair int int)) "element cap: at the X card" (4 * 17 + 3, 1) (e.Deck.line, e.Deck.col);
  Alcotest.(check string) "element cap: message" "deck elaborates to more than 65536 elements" e.Deck.msg;
  (* 1,024 resistors and 1,025 unknowns stay inside *)
  let d = parse_ok (Oracle.nested_deck ~internal:true 9) in
  Alcotest.(check int) "nine levels parse" 1025 (Sp.Netlist.unknowns d.Deck.netlist)

(* a hub node with many spokes stays inside the caps. Natural order
   would eliminate the hub first and fill all of L+U; the minimum-degree
   order eliminates it last. Ten levels (1,025 unknowns) parse; eight
   levels (257) and the deck at the unknown cap (2,048) run and match
   the hub's analytic voltage *)
let test_hub_deck () =
  let d = parse_ok (Oracle.hub_deck [ 10 ]) in
  Alcotest.(check int) "ten levels parse" 1025 (Sp.Netlist.unknowns d.Deck.netlist);
  let d = parse_ok (Oracle.hub_deck Oracle.hub_at_cap) in
  Alcotest.(check int) "the deck at the cap parses" 2048 (Sp.Netlist.unknowns d.Deck.netlist);
  let engine = Lattice_engine.Engine.create ~domains:1 ~store_dir:"" () in
  List.iter
    (fun levels ->
      match Runner.run ~engine (parse_ok (Oracle.hub_deck levels)) with
      | Error msg -> Alcotest.failf "runner failed: %s" msg
      | Ok r -> (
        match r.Runner.results with
        | [ (_, Runner.Op_result { rows = [ ("hub", v) ]; _ }) ] ->
          Alcotest.(check (float 1e-10)) "v(hub)" (Oracle.hub_volts levels) v
        | _ -> Alcotest.fail "expected one .op result probing v(hub)"))
    [ [ 8 ]; Oracle.hub_at_cap ]

let test_errors_never_escape () =
  (* seeded mutation fuzz: random edits of a valid deck must yield
     Ok or Error, never an exception *)
  let base = snd (List.nth corpus 2) in
  let st = Random.State.make [| 0x5eed |] in
  for _ = 1 to 500 do
    let b = Bytes.of_string base in
    let mutations = 1 + Random.State.int st 4 in
    for _ = 1 to mutations do
      let i = Random.State.int st (Bytes.length b) in
      match Random.State.int st 3 with
      | 0 -> Bytes.set b i (Char.chr (32 + Random.State.int st 95))
      | 1 -> Bytes.set b i '\n'
      | _ -> Bytes.set b i ' '
    done;
    match Deck.parse (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "parse raised %s on:\n%s" (Printexc.to_string e) (Bytes.to_string b)
  done

(* --- engine parity ------------------------------------------------------- *)

(* The deck path and the programmatic path must agree: same digest
   (hence same cache key), and a solve of one is a cache hit for the
   other. Their node ids differ, so the hit must be mapped to the
   caller's numbering: every named node and branch current read after
   the hit equals the first solve's value for that name, bit for bit,
   and lies within abstol + reltol·|v| of a fresh solve. *)
let parity_circuits =
  let stimulus m v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then 1.2 else 0.0) in
  let maj3 = Lattice_synthesis.Library.maj3_2x3 in
  let maj3_ar =
    let tt = Lattice_boolfn.Truthtable.create 3 (fun m -> 0b11101000 land (1 lsl m) <> 0) in
    (Lattice_synthesis.Altun_riedel.synthesize tt).Lattice_synthesis.Altun_riedel.grid
  in
  [
    ("maj3 Altun-Riedel", Sp.Lattice_circuit.build maj3_ar ~stimulus:(stimulus 1));
    ("maj3 2x3", Sp.Lattice_circuit.build maj3 ~stimulus:(stimulus 5));
    ("xor3 3x3", Sp.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3 ~stimulus:(stimulus 6));
    ( "maj3 2x3 broken north terminal",
      Sp.Defects.build
        ~defects:
          [ { Sp.Defects.row = 0; col = 1; kind = Sp.Defects.Broken_terminal Sp.Defects.North } ]
        maj3 ~stimulus:(stimulus 3) );
  ]

let test_export_parse_digest_and_dc_op_parity () =
  let solution net = function
    | Ok (x, _) -> x
    | Error f ->
      Alcotest.failf "dc_op failed on %s: %s" (Sp.Netlist.summary net) (Sp.Dcop.pp_failure f)
  in
  List.iter
    (fun (label, lc) ->
      let net = lc.Sp.Lattice_circuit.netlist in
      let deck =
        Deck.of_netlist ~title:"parity" ~analyses:[ Deck.Op ]
          ~prints:[ Deck.Vprobe lc.Sp.Lattice_circuit.output_node ]
          net
      in
      let reparsed = (parse_ok (Deck.emit deck)).Deck.netlist in
      Alcotest.(check string) (label ^ ": digest preserved by export -> parse")
        (Sp.Netlist.structural_digest net)
        (Sp.Netlist.structural_digest reparsed);
      List.iter
        (fun (order, first, second) ->
          let label = Printf.sprintf "%s, %s" label order in
          let engine = Lattice_engine.Engine.create ~domains:1 ~store_dir:"" () in
          let x1 = solution first (Lattice_engine.Engine.dc_op engine first) in
          let x2 = solution second (Lattice_engine.Engine.dc_op engine second) in
          let fresh = solution second (Sp.Dcop.solve_diag second) in
          (* same digest means the second solve was a cache hit, not a solve *)
          let tel = Lattice_engine.Engine.telemetry engine in
          Alcotest.(check int) (label ^ ": one physical solve") 1 tel.Lattice_engine.Engine.dc_solves;
          Alcotest.(check int) (label ^ ": one cache hit") 1
            tel.Lattice_engine.Engine.cache.Lattice_engine.Cache.hits;
          let o = Sp.Dcop.default_options in
          let check_row what row1 row2 =
            let v1 = x1.(row1) and v2 = x2.(row2) and vf = fresh.(row2) in
            Alcotest.(check int64) (Printf.sprintf "%s: %s = first solve" label what)
              (Int64.bits_of_float v1) (Int64.bits_of_float v2);
            if Float.abs (v2 -. vf) > o.Sp.Dcop.abstol +. (o.Sp.Dcop.reltol *. Float.abs vf) then
              Alcotest.failf "%s: %s = %.9g, fresh solve %.9g" label what v2 vf
          in
          let row_of net name =
            match Sp.Netlist.find_node net name with
            | Some n -> Sp.Netlist.node_index n
            | None -> Alcotest.failf "%s: node %s lost" label name
          in
          let ids_differ = ref false in
          Array.iter
            (fun name ->
              let r1 = row_of first name and r2 = row_of second name in
              if r1 <> r2 then ids_differ := true;
              check_row ("v(" ^ name ^ ")") r1 r2)
            (Sp.Netlist.all_node_names first);
          Alcotest.(check bool) (label ^ ": the two numberings differ") true !ids_differ;
          List.iter
            (function
              | Sp.Netlist.Vsource { name; index; _ } -> (
                match Sp.Netlist.vsource_index second name with
                | Some i2 ->
                  check_row ("i(" ^ name ^ ")") (Sp.Netlist.vsource_row first index)
                    (Sp.Netlist.vsource_row second i2)
                | None -> Alcotest.failf "%s: source %s lost" label name)
              | Sp.Netlist.Resistor _ | Sp.Netlist.Capacitor _ | Sp.Netlist.Isource _
              | Sp.Netlist.Mosfet _ ->
                ())
            (Sp.Netlist.elements first))
        [ ("built first", net, reparsed); ("deck first", reparsed, net) ])
    parity_circuits

let test_runner_smoke () =
  let d = parse_ok (snd (List.nth corpus 2)) in
  let engine = Lattice_engine.Engine.create () in
  match Runner.run ~engine ~smoke:true d with
  | Error msg -> Alcotest.failf "runner failed: %s" msg
  | Ok r ->
    Alcotest.(check int) "two analyses" 2 (List.length r.Runner.results);
    (match r.Runner.results with
    | (_, Runner.Op_result { rows; _ }) :: (_, Runner.Dc_result { rows = sweep; _ }) :: _ ->
      Alcotest.(check int) "op probes v(out)" 1 (List.length rows);
      Alcotest.(check int) "smoke caps sweep to 5" 5 (List.length sweep)
    | _ -> Alcotest.fail "unexpected result shapes");
    let transcript = Runner.render r in
    Alcotest.(check bool) "render mentions digest" true
      (String.length transcript > 0
      && String.sub transcript 0 5 = "deck:")

let test_runner_limits () =
  let d = parse_ok "t\nv1 a 0 dc 0\nr1 a 0 1k\n.dc v1 0 1 1u\n.end\n" in
  let engine = Lattice_engine.Engine.create () in
  let limits = { Runner.max_sweep_points = 100; max_tran_steps = 100 } in
  (match Runner.run ~engine ~limits d with
  | Ok _ -> Alcotest.fail "oversized sweep should be rejected"
  | Error msg ->
    Alcotest.(check bool) "limit error names the cap" true
      (String.length msg > 0 && msg.[0] = 'd' (* "dc sweep has ..." *)));
  (* the parser checks a swept source exists; a deck assembled in code
     is checked by the runner *)
  let unknown =
    Deck.of_netlist ~title:"t"
      ~analyses:[ Deck.Dc_sweep { source = "9"; start = 0.0; stop = 1.0; step = 0.5 } ]
      d.Deck.netlist
  in
  match Runner.run ~engine unknown with
  | Ok _ -> Alcotest.fail "a sweep of a missing source should be rejected"
  | Error msg -> Alcotest.(check string) "names the source" "dc sweep: unknown voltage source V9" msg

(* the parser drops the type letter, so V1 and I1 are both element "1";
   a sweep of V1 must leave I1 at its own 1 mA *)
let test_runner_dc_sweeps_only_the_vsource () =
  let d =
    parse_ok
      "same suffix\nv1 a 0 dc 0\nr1 a b 1k\nr2 b 0 1k\ni1 0 b dc 1m\n.dc v1 0 1 0.5\n\
       .print dc v(b)\n.end\n"
  in
  let engine = Lattice_engine.Engine.create ~domains:1 ~store_dir:"" () in
  match Runner.run ~engine d with
  | Error msg -> Alcotest.failf "runner failed: %s" msg
  | Ok r -> (
    match r.Runner.results with
    | [ (_, Runner.Dc_result { rows; _ }) ] ->
      (* v(b) = v1 / 2 + 1 mA * 500 ohm *)
      Alcotest.(check (list (pair (float 0.0) (list (pair string (float 1e-12))))))
        "sweep rows"
        [ (0.0, [ ("b", 0.5) ]); (0.5, [ ("b", 0.75) ]); (1.0, [ ("b", 1.0) ]) ]
        rows
    | _ -> Alcotest.fail "expected one dc sweep result")

let () =
  Alcotest.run "deck"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "emit/parse idempotent over corpus" `Quick
            test_roundtrip_idempotent;
          Alcotest.test_case "emitter deterministic" `Quick test_emitter_deterministic;
        ] );
      ( "errors",
        [
          Alcotest.test_case "line/col error table" `Quick test_parse_error_table;
          Alcotest.test_case "mutation fuzz never raises" `Quick test_errors_never_escape;
          Alcotest.test_case "nested subcircuits past the size caps" `Quick test_elaboration_caps;
          Alcotest.test_case "hub and spokes inside the caps" `Quick test_hub_deck;
        ] );
      ( "engine",
        [
          Alcotest.test_case "export->parse digest + dc_op parity" `Quick
            test_export_parse_digest_and_dc_op_parity;
          Alcotest.test_case "runner smoke" `Quick test_runner_smoke;
          Alcotest.test_case "runner limits" `Quick test_runner_limits;
          Alcotest.test_case "dc sweep leaves a same-named current source" `Quick
            test_runner_dc_sweeps_only_the_vsource;
        ] );
    ]
