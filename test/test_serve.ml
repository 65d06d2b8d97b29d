(* Service-layer tests: JSON codec determinism, protocol validation,
   framing hardening, and a live in-process daemon — malformed-input
   table, concurrent-client parity against direct engine calls,
   quota/backpressure, graceful shutdown, restart-from-store with a
   1.0 hit rate, and a multi-thousand-request soak. *)

module S = Lattice_serve.Server
module C = Lattice_serve.Client
module J = Lattice_serve.Json
module P = Lattice_serve.Protocol
module F = Lattice_serve.Framing
module Engine = Lattice_engine.Engine
module Sp = Lattice_spice

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%06x" prefix (Unix.getpid ()) (Random.bits () land 0xFFFFFF))
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- json codec ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.Float 0.07414685561212285);
        ("c", J.String "quote \" backslash \\ newline \n tab \t");
        ("d", J.List [ J.Null; J.Bool true; J.Bool false; J.Int (-7); J.Float 1e-9 ]);
        ("e", J.Obj [ ("nested", J.List [ J.Obj [] ]) ]);
        ("f", J.Float 3.0);
      ]
  in
  let s = J.to_string v in
  Alcotest.(check bool) "roundtrip equal" true (J.parse s = v);
  Alcotest.(check string) "printer deterministic" s (J.to_string (J.parse s));
  (* integral floats keep their decimal point so they re-parse as Float *)
  Alcotest.(check string) "integral float form" "3.0" (J.to_string (J.Float 3.0));
  Alcotest.(check bool) "unicode escapes decode" true
    (J.parse {|"\u0041\u00e9\u20ac\ud83d\ude00"|} = J.String "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80")

(* Generated documents: strings over all 256 byte values, floats at the
   edges of the format (through [J.float], so non-finite ones too), ints
   at both ends of the range, nesting up to the parser's 64 levels. *)
let json_gen =
  let open QCheck2.Gen in
  let byte =
    frequency [ (3, char); (1, oneofl [ '"'; '\\'; '\b'; '\012'; '\x01'; '\x7f'; '\xe9'; '\xff' ]) ]
  in
  let str = string_size ~gen:byte (int_range 0 8) in
  let flt =
    frequency
      [
        (3, float);
        (1, map float_of_int int);
        ( 1,
          oneofl
            [
              -0.0; 0.0; 5e-324; -5e-324; 2.2250738585072009e-308; 1e308; -1e308; Float.max_float;
              1e16; -12345678901234568.0; 9007199254740993.0; 0.1 +. 0.2; Float.infinity; Float.nan;
            ] );
      ]
  in
  let int = frequency [ (3, int); (1, oneofl [ min_int; max_int; 0; -1 ]) ] in
  let scalar =
    oneof
      [
        pure J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) int;
        map J.float flt;
        map (fun s -> J.String s) str;
      ]
  in
  let rec nest k v =
    if k = 0 then v else nest (k - 1) (if k mod 2 = 0 then J.List [ v ] else J.Obj [ ("k", v) ])
  in
  let value =
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun v -> J.List [ v ]) (self (n - 1)));
                 (1, map (fun l -> J.List l) (list_size (int_range 0 3) (self (n / 3))));
                 (1, map (fun kv -> J.Obj kv) (list_size (int_range 0 3) (pair str (self (n / 3)))));
               ])
  in
  frequency [ (9, value); (1, map (nest 64) scalar) ]

let rec json_equal a b =
  match (a, b) with
  | J.Float x, J.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.List xs, J.List ys -> List.equal json_equal xs ys
  | J.Obj xs, J.Obj ys -> List.equal (fun (k, v) (k', v') -> k = k' && json_equal v v') xs ys
  | _ -> a = b

let test_json_generated =
  QCheck2.Test.make ~name:"generated documents roundtrip" ~count:500 ~print:J.to_string json_gen
    (fun v ->
      let s = J.to_string v in
      let back = J.parse s in
      json_equal back v && J.to_string back = s)

let test_json_rejects () =
  let rejects s =
    match J.parse s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "parsed %S" s
  in
  List.iter rejects
    [
      "";
      "{";
      "[1,2";
      "\"unterminated";
      "{\"a\":}";
      "1 2";
      "nul";
      "truex";
      "\"bad \\x escape\"";
      "\"\ncontrol\"";
      "\"\\ud800\"";  (* unpaired surrogate *)
      "{\"a\":1,}";
      "[1,]";
      "nan";
      "01";  (* leading zeros *)
      "-01";
      "00.5";
    ];
  (* deep nesting is a structured error, not a stack overflow *)
  let deep = String.make 100 '[' ^ String.make 100 ']' in
  rejects deep;
  (match J.to_string (J.Float Float.nan) with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "printed non-finite float as %s" s)

let test_json_numbers () =
  Alcotest.(check bool) "int" true (J.parse "42" = J.Int 42);
  Alcotest.(check bool) "negative" true (J.parse "-7" = J.Int (-7));
  Alcotest.(check bool) "float" true (J.parse "1.5" = J.Float 1.5);
  Alcotest.(check bool) "exponent" true (J.parse "2e3" = J.Float 2000.0);
  Alcotest.(check bool) "int via float accessor" true (J.to_float (J.Int 3) = Some 3.0);
  Alcotest.(check bool) "integral float via int accessor" true (J.to_int (J.Float 5.0) = Some 5);
  Alcotest.(check bool) "fractional float not an int" true (J.to_int (J.Float 5.5) = None);
  (* every float round-trips bit-exactly through the printer *)
  List.iter
    (fun f ->
      Alcotest.(check int64) "float roundtrip bits" (Int64.bits_of_float f)
        (match J.parse (J.to_string (J.Float f)) with
        | J.Float g -> Int64.bits_of_float g
        | J.Int n -> Int64.bits_of_float (float_of_int n)
        | _ -> 0L))
    [ 0.07414685561212285; 1e-300; -1.2345678901234567; 6.02214076e23; 0.1 ]

(* --- protocol -------------------------------------------------------------- *)

let code_of = function Error (_, code, _) -> Some code | Ok _ -> None

let test_protocol_valid () =
  (match P.parse_request {|{"type":"dc_op","expr":"a&b","state":2,"id":"r1","deadline_s":5.0}|} with
  | Ok { P.id = Some (J.String "r1"); deadline_s = Some 5.0; req = P.Dc_op { expr = "a&b"; state = 2; vdd = None }; _ } ->
    ()
  | _ -> Alcotest.fail "dc_op envelope did not parse");
  (match P.parse_request {|{"type":"ping"}|} with
  | Ok { P.id = None; deadline_s = None; trace_id = None; parent_span = None; req = P.Ping } -> ()
  | _ -> Alcotest.fail "bare ping did not parse");
  (match P.parse_request {|{"type":"yield","expr":"a|b"}|} with
  | Ok { P.req = P.Yield { samples = 100; seed = 42; _ }; _ } -> ()
  | _ -> Alcotest.fail "yield defaults did not apply");
  match P.parse_request {|{"type":"ping","trace_id":"t-1","parent_span":"s-9"}|} with
  | Ok { P.trace_id = Some "t-1"; parent_span = Some "s-9"; req = P.Ping; _ } -> ()
  | _ -> Alcotest.fail "trace envelope did not parse"

let test_protocol_malformed_table () =
  let cases =
    [
      ("not json", P.Parse_error);
      ("[1,2]", P.Bad_request);
      ({|{"type":"warp"}|}, P.Unknown_type);
      ({|{"type":"ping","extra":1}|}, P.Unknown_field);
      ({|{"type":"dc_op","expr":"a&b"}|}, P.Bad_request);  (* missing state *)
      ({|{"type":"dc_op","state":0}|}, P.Bad_request);  (* missing expr *)
      ({|{"type":"dc_op","expr":"a","state":-1}|}, P.Bad_request);
      ({|{"type":"dc_op","expr":"a","state":0,"vdd":0}|}, P.Bad_request);
      ({|{"type":"table1","rows":1,"cols":4}|}, P.Bad_request);
      ({|{"type":"table1","rows":4,"cols":13}|}, P.Bad_request);
      ({|{"type":"paths","rows":4}|}, P.Bad_request);
      ({|{"type":"transient","expr":"a","bit_time":1e-9,"h":1e-8}|}, P.Bad_request);
      ({|{"type":"yield","expr":"a","samples":0}|}, P.Bad_request);
      ({|{"type":"yield","expr":"a","samples":100001}|}, P.Bad_request);
      ({|{"type":"sleep","seconds":100}|}, P.Bad_request);
      ({|{"type":"ping","id":[1]}|}, P.Bad_request);
      ({|{"type":"ping","deadline_s":-1}|}, P.Bad_request);
      ({|{"type":42}|}, P.Bad_request);
      ({|"ping"|}, P.Bad_request);
      ({|{"type":"ping","trace_id":""}|}, P.Bad_request);
      ({|{"type":"ping","trace_id":42}|}, P.Bad_request);
      ({|{"type":"ping","parent_span":"s1"}|}, P.Bad_request);  (* needs trace_id *)
      ( Printf.sprintf {|{"type":"ping","trace_id":"%s"}|} (String.make 129 't'),
        P.Bad_request );
    ]
  in
  List.iter
    (fun (line, expected) ->
      match code_of (P.parse_request line) with
      | Some code when code = expected -> ()
      | Some code ->
        Alcotest.failf "%s: expected %s, got %s" line (P.code_name expected) (P.code_name code)
      | None -> Alcotest.failf "%s: unexpectedly accepted" line)
    cases;
  (* a rejected request still recovers its id for the error response *)
  match P.parse_request {|{"type":"warp","id":7}|} with
  | Error (Some (J.Int 7), P.Unknown_type, _) -> ()
  | _ -> Alcotest.fail "id not recovered from rejected request"

let test_protocol_responses () =
  let ok = P.render_ok ~id:(Some (J.Int 3)) (J.Obj [ ("pong", J.Bool true) ]) in
  (match P.parse_response ok with
  | Ok { P.resp_id = Some (J.Int 3); payload = Ok (J.Obj [ ("pong", J.Bool true) ]) } -> ()
  | _ -> Alcotest.fail "ok response roundtrip");
  let err = P.render_error ~id:None P.Overloaded "queue full" in
  (match P.parse_response err with
  | Ok { P.resp_id = None; payload = Error (P.Overloaded, "queue full") } -> ()
  | _ -> Alcotest.fail "error response roundtrip");
  (* every error code survives the name mapping *)
  List.iter
    (fun code ->
      match P.parse_response (P.render_error ~id:None code "m") with
      | Ok { P.payload = Error (c, "m"); _ } when c = code -> ()
      | _ -> Alcotest.failf "code %s does not roundtrip" (P.code_name code))
    [
      P.Parse_error; P.Bad_request; P.Unknown_type; P.Unknown_field; P.Frame_too_long;
      P.Invalid_frame; P.Overloaded; P.Quota_exceeded; P.Timeout; P.Non_convergent;
      P.Shutting_down; P.Internal;
    ]

(* --- framing ---------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_framing_roundtrip () =
  with_socketpair @@ fun a b ->
  let r = F.reader ~max_frame:64 b in
  F.write_frame a "hello";
  F.write_frame a "";
  ignore (Unix.write_substring a "crlf\r\ntail" 0 10);
  ignore (Unix.write_substring a "\n" 0 1);
  Unix.close a;
  Alcotest.(check bool) "frame 1" true (F.read_frame r = F.Frame "hello");
  Alcotest.(check bool) "empty frame" true (F.read_frame r = F.Frame "");
  Alcotest.(check bool) "crlf stripped" true (F.read_frame r = F.Frame "crlf");
  Alcotest.(check bool) "tail frame" true (F.read_frame r = F.Frame "tail");
  Alcotest.(check bool) "eof" true (F.read_frame r = F.Eof)

let test_framing_hardening () =
  with_socketpair @@ fun a b ->
  let r = F.reader ~max_frame:16 b in
  F.write_frame a (String.make 40 'x');  (* overlong, terminated *)
  F.write_frame a "ok-1";
  F.write_frame a "nul\000nul";
  F.write_frame a "ok-2";
  ignore (Unix.write_substring a "unterminated" 0 12);
  Unix.close a;
  (match F.read_frame r with
  | F.Too_long n -> Alcotest.(check bool) "dropped count plausible" true (n >= 40)
  | f -> Alcotest.failf "expected Too_long, got %s" (match f with F.Frame s -> s | _ -> "?"));
  Alcotest.(check bool) "connection survives overlong frame" true (F.read_frame r = F.Frame "ok-1");
  Alcotest.(check bool) "nul frame rejected" true (F.read_frame r = F.Nul);
  Alcotest.(check bool) "connection survives nul frame" true (F.read_frame r = F.Frame "ok-2");
  Alcotest.(check bool) "trailing unterminated line dropped" true (F.read_frame r = F.Eof)

let test_framing_huge_unterminated () =
  (* an unterminated flood past the cap must not buffer unboundedly:
     it is discarded as soon as a newline finally arrives *)
  with_socketpair @@ fun a b ->
  let r = F.reader ~max_frame:64 b in
  let blob = String.make 8192 'y' in
  ignore (Unix.write_substring a blob 0 (String.length blob));
  F.write_frame a "-the-end";
  F.write_frame a "after";
  Unix.close a;
  (match F.read_frame r with
  | F.Too_long n -> Alcotest.(check bool) "dropped all flooded bytes" true (n >= 8192)
  | _ -> Alcotest.fail "expected Too_long");
  Alcotest.(check bool) "framing recovers after flood" true (F.read_frame r = F.Frame "after")

(* --- live daemon ------------------------------------------------------------ *)

let with_server ?(workers = 2) ?(queue = 64) ?(quota = 16) ?(allow_sleep = false)
    ?(max_frame = 65536) ?default_deadline_s ?store_dir ?flight_dir ?slow_threshold_s
    ?access_log_path ?log f =
  let dir = temp_dir "ftl-serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "daemon.sock" in
  let config =
    {
      S.default_config with
      S.socket_path = Some path;
      domains = Some 2;
      store_dir;
      workers;
      queue_capacity = queue;
      max_inflight_per_client = quota;
      allow_sleep;
      max_frame;
      default_deadline_s =
        (match default_deadline_s with None -> S.default_config.S.default_deadline_s | d -> d);
      flight_dir;
      slow_threshold_s;
      access_log_path;
      log;
    }
  in
  let t = S.create ~config () in
  S.start t;
  Fun.protect ~finally:(fun () -> S.stop t) (fun () -> f t path)

let expect_error c line expected =
  match P.parse_response (C.call_raw c line) with
  | Ok { P.payload = Error (code, _); _ } when code = expected -> ()
  | Ok { P.payload = Error (code, _); _ } ->
    Alcotest.failf "%s: expected %s, got %s" line (P.code_name expected) (P.code_name code)
  | Ok { P.payload = Ok _; _ } -> Alcotest.failf "%s: unexpectedly succeeded" line
  | Error msg -> Alcotest.failf "%s: undecodable response: %s" line msg

let test_daemon_malformed_never_kills () =
  with_server ~max_frame:256 ~allow_sleep:false @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  expect_error c "garbage" P.Parse_error;
  expect_error c "{\"type\":\"ping\"" P.Parse_error;
  expect_error c "[]" P.Bad_request;
  expect_error c {|{"type":"warp"}|} P.Unknown_type;
  expect_error c {|{"type":"ping","bogus":true}|} P.Unknown_field;
  expect_error c {|{"type":"dc_op","expr":"(((","state":0}|} P.Bad_request;
  expect_error c {|{"type":"dc_op","expr":"a&b","state":9}|} P.Bad_request;
  expect_error c {|{"type":"dc_op","expr":"a&b&c&d&e&f","state":0}|} P.Bad_request;
  expect_error c {|{"type":"sleep","seconds":0.01}|} P.Bad_request;  (* disabled *)
  expect_error c (Printf.sprintf {|{"type":"ping","pad":"%s"}|} (String.make 300 'x'))
    P.Frame_too_long;
  expect_error c "with\000nul" P.Invalid_frame;
  (* same connection still serves after the whole table *)
  Alcotest.(check bool) "daemon alive on same connection" true (C.ping c)

let test_daemon_parity_with_direct_engine () =
  (* concurrent clients hammering dc_op must see voltages bit-identical
     to direct engine calls on a private engine *)
  let exprs = [| "a&b|c"; "a^b^c"; "a&b|b&c|a&c" |] in
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let build expr state =
    let ast, names = Lattice_boolfn.Expr.parse expr in
    let tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars:(Array.length names) in
    let grid = (Lattice_synthesis.Altun_riedel.synthesize tt).Lattice_synthesis.Altun_riedel.grid in
    let stimulus v = Sp.Source.Dc (if (state lsr v) land 1 = 1 then vdd else 0.0) in
    Sp.Lattice_circuit.build grid ~stimulus
  in
  let direct = Engine.create ~domains:1 () in
  let expected =
    Array.map
      (fun expr ->
        Array.init 8 (fun state ->
            let lc = build expr state in
            match Engine.dc_op direct lc.Sp.Lattice_circuit.netlist with
            | Ok (x, _) ->
              Sp.Mna.voltage x
                (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist lc.Sp.Lattice_circuit.output_node)
            | Error _ -> Alcotest.fail "direct solve failed"))
      exprs
  in
  with_server @@ fun _t path ->
  let results = Array.map (fun _ -> Array.make 8 Float.nan) exprs in
  let worker e =
    let c = C.connect (C.Unix_socket path) in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    for state = 0 to 7 do
      match
        C.call c ~type_:"dc_op"
          [ ("expr", J.String exprs.(e)); ("state", J.Int state) ]
      with
      | Ok result ->
        results.(e).(state) <-
          (match Option.bind (J.member "output_v" result) J.to_float with
          | Some v -> v
          | None -> Alcotest.fail "response carries no output_v")
      | Error (code, msg) -> Alcotest.failf "dc_op failed: %s: %s" (P.code_name code) msg
    done
  in
  let threads = Array.mapi (fun e _ -> Thread.create worker e) exprs in
  Array.iter Thread.join threads;
  Array.iteri
    (fun e per_state ->
      Array.iteri
        (fun state v ->
          Alcotest.(check int64)
            (Printf.sprintf "%s state %d bit-identical" exprs.(e) state)
            (Int64.bits_of_float expected.(e).(state))
            (Int64.bits_of_float v))
        per_state)
    results

let get_server_stat c path =
  match Option.bind (J.member "server" (C.stats c)) (J.member path) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats carries no server.%s" path

(* A gate the test holds closed: [wait] blocks until [release]. *)
type gate = { gate_lock : Mutex.t; opened : Condition.t; mutable open_ : bool }

let gate () = { gate_lock = Mutex.create (); opened = Condition.create (); open_ = false }

let gate_wait g =
  Mutex.lock g.gate_lock;
  while not g.open_ do
    Condition.wait g.opened g.gate_lock
  done;
  Mutex.unlock g.gate_lock

let gate_release g =
  Mutex.lock g.gate_lock;
  g.open_ <- true;
  Condition.broadcast g.opened;
  Mutex.unlock g.gate_lock

(* Poll [stats] until [ready] holds of its server object, failing with
   the last snapshot after [tries] polls 10 ms apart. *)
let wait_stats c ~what ~tries ready =
  let rec go n =
    let st = C.stats c in
    let server = Option.value (J.member "server" st) ~default:J.Null in
    let get k = match J.member k server with Some (J.Int n) -> n | _ -> -1 in
    if ready get then ()
    else if n = 0 then Alcotest.failf "%s; last stats: %s" what (J.to_string st)
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go tries

(* The answer carrying [id] on [c]: answers to other requests read on the
   way are kept in [early] for a later call. *)
let recv_id c early id =
  let rec go () =
    match Hashtbl.find_opt early id with
    | Some resp ->
      Hashtbl.remove early id;
      resp
    | None -> (
      match C.recv_raw c with
      | None -> Alcotest.failf "connection closed before the answer to request %d" id
      | Some line -> (
        match P.parse_response line with
        | Ok ({ P.resp_id = Some (J.Int got); _ } as resp) ->
          Hashtbl.replace early got resp;
          go ()
        | _ -> Alcotest.failf "undecodable answer %s" line))
  in
  go ()

let test_daemon_quota_and_backpressure () =
  (* The single worker is held by a gate, not by a timed sleep: with every
     ok request slow (threshold 0), the worker logs a flight dump after
     answering request 1 and before it takes the next job, and the log
     hook blocks there until the test opens the gate. So request 1 stays
     in flight, and the queue only fills, however long the test thread is
     descheduled. *)
  let flight = temp_dir "ftl-flight" in
  Fun.protect ~finally:(fun () -> rm_rf flight) @@ fun () ->
  let g = gate () in
  let log line = if String.starts_with ~prefix:"flight dump" line then gate_wait g in
  with_server ~workers:1 ~queue:2 ~quota:2 ~allow_sleep:true ~flight_dir:flight
    ~slow_threshold_s:0.0 ~log
  @@ fun _t path ->
  let c1 = C.connect (C.Unix_socket path) in
  let c2 = C.connect (C.Unix_socket path) in
  let watch = C.connect (C.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      gate_release g;
      List.iter C.close [ c1; c2; watch ])
  @@ fun () ->
  let fail what = Alcotest.failf "%s; stats: %s" what (J.to_string (C.stats watch)) in
  let sleep_req seconds id =
    J.to_string
      (J.Obj [ ("type", J.String "sleep"); ("seconds", J.Float seconds); ("id", J.Int id) ])
  in
  let early1 = Hashtbl.create 4 and early2 = Hashtbl.create 4 in
  (* occupy the single worker, then fill the queue up to c1's quota *)
  C.send_raw c1 (sleep_req 0.05 1);
  wait_stats watch ~what:"worker never picked the sleep up" ~tries:1000 (fun get ->
      get "queue_depth" = 0 && get "inflight" >= 1);
  C.send_raw c1 (sleep_req 0.2 2);  (* queued: c1 at quota 2 *)
  (* third c1 request bounces on the per-connection quota *)
  C.send_raw c1 (sleep_req 0.2 3);
  (match recv_id c1 early1 3 with
  | { P.payload = Error (P.Quota_exceeded, _); _ } -> ()
  | _ -> fail "expected quota_exceeded for request 3");
  (* c2 fills the remaining queue slot, then bounces on overload *)
  C.send_raw c2 (sleep_req 0.2 4);
  wait_stats watch ~what:"queue never filled" ~tries:1000 (fun get -> get "queue_depth" >= 2);
  C.send_raw c2 (sleep_req 0.2 5);
  (match recv_id c2 early2 5 with
  | { P.payload = Error (P.Overloaded, _); _ } -> ()
  | _ -> fail "expected overloaded for request 5");
  gate_release g;
  (* backpressure is advisory: everything admitted still completes *)
  let drain c early expect_ids =
    List.iter
      (fun id ->
        match recv_id c early id with
        | { P.payload = Ok _; _ } -> ()
        | _ -> fail (Printf.sprintf "expected ok response %d" id))
      expect_ids
  in
  drain c1 early1 [ 1; 2 ];
  drain c2 early2 [ 4 ];
  Alcotest.(check int) "rejections counted" 1 (get_server_stat watch "quota_rejected");
  Alcotest.(check int) "overloads counted" 1 (get_server_stat watch "overloaded")

let test_daemon_timeout_structured () =
  with_server ~allow_sleep:true @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match C.call c ~deadline_s:0.05 ~type_:"sleep" [ ("seconds", J.Float 5.0) ] with
  | Error (P.Timeout, _) -> ()
  | Error (code, msg) -> Alcotest.failf "expected timeout, got %s: %s" (P.code_name code) msg
  | Ok _ -> Alcotest.fail "sleep outlived its deadline");
  Alcotest.(check bool) "timeout fired early" true (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check bool) "daemon alive after timeout" true (C.ping c)

let test_daemon_tcp_listener () =
  let config =
    { S.default_config with S.tcp_port = Some 0; domains = Some 1; workers = 1 }
  in
  let t = S.create ~config () in
  S.start t;
  Fun.protect ~finally:(fun () -> S.stop t) @@ fun () ->
  let port = Option.get (S.port t) in
  let c = C.connect (C.Tcp ("127.0.0.1", port)) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  Alcotest.(check bool) "tcp ping" true (C.ping c);
  match C.call c ~type_:"table1" [ ("rows", J.Int 3); ("cols", J.Int 3) ] with
  | Ok result -> Alcotest.(check bool) "tcp table1" true (J.member "count" result = Some (J.Int 9))
  | Error _ -> Alcotest.fail "tcp table1 failed"

let test_daemon_graceful_shutdown_drains () =
  let dir = temp_dir "ftl-serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "daemon.sock" in
  let config =
    {
      S.default_config with
      S.socket_path = Some path;
      domains = Some 1;
      workers = 1;
      allow_sleep = true;
    }
  in
  let t = S.create ~config () in
  S.start t;
  let waiter = Thread.create (fun () -> S.wait t) () in
  let c1 = C.connect (C.Unix_socket path) in
  C.send_raw c1
    (J.to_string
       (J.Obj [ ("type", J.String "sleep"); ("seconds", J.Float 0.4); ("id", J.Int 1) ]));
  Thread.delay 0.05;  (* let the worker pick it up *)
  let c2 = C.connect (C.Unix_socket path) in
  C.shutdown c2;
  (* the in-flight sleep drains to completion despite the shutdown *)
  (match P.parse_response (Option.get (C.recv_raw c1)) with
  | Ok { P.resp_id = Some (J.Int 1); payload = Ok _ } -> ()
  | _ -> Alcotest.fail "in-flight job lost by graceful shutdown");
  Alcotest.(check bool) "connection closed after drain" true (C.recv_raw c1 = None);
  Thread.join waiter;
  C.close c1;
  C.close c2;
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path);
  S.stop t  (* idempotent *)

let test_daemon_restart_store_warm () =
  (* restart must serve repeat requests from the persistent store:
     zero dc solves, a 1.0 store hit rate, byte-identical payloads *)
  let dir = temp_dir "ftl-serve-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Filename.concat dir "store" in
  let requests =
    List.concat_map
      (fun expr ->
        List.init 8 (fun state ->
            J.to_string
              (J.Obj
                 [
                   ("type", J.String "dc_op");
                   ("id", J.String (Printf.sprintf "%s/%d" expr state));
                   ("expr", J.String expr);
                   ("state", J.Int state);
                 ])))
      [ "a&b|c"; "a^b^c" ]
  in
  let run_once nth =
    let path = Filename.concat dir (Printf.sprintf "daemon-%d.sock" nth) in
    let config =
      { S.default_config with S.socket_path = Some path; domains = Some 2; store_dir = Some store }
    in
    let t = S.create ~config () in
    S.start t;
    Fun.protect ~finally:(fun () -> S.stop t) @@ fun () ->
    let c = C.connect (C.Unix_socket path) in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    let responses = List.map (fun line -> C.call_raw c line) requests in
    let tel = Engine.telemetry (S.engine t) in
    (responses, tel)
  in
  let cold, tel_cold = run_once 0 in
  Alcotest.(check int) "cold run solved everything" 16 tel_cold.Engine.dc_solves;
  let warm, tel_warm = run_once 1 in
  Alcotest.(check int) "warm run solved nothing" 0 tel_warm.Engine.dc_solves;
  let st = Option.get tel_warm.Engine.store in
  Alcotest.(check int) "store hit rate 1.0: no misses" 0 st.Lattice_engine.Store.misses;
  Alcotest.(check int) "store hit rate 1.0: all hits" 16 st.Lattice_engine.Store.hits;
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "payload %d byte-identical across restart" i) a b)
    (List.combine cold warm)

let test_daemon_soak () =
  (* thousands of mixed requests over concurrent connections: every
     request answered, no crash, steady memory, cross-request hits *)
  let trace_was_on = Lattice_obs.Trace.on () in
  Lattice_obs.Trace.set_enabled false;
  Fun.protect ~finally:(fun () -> Lattice_obs.Trace.set_enabled trace_was_on) @@ fun () ->
  with_server ~workers:2 @@ fun t path ->
  let exprs = [| "a&b|c"; "a^b" |] in
  let send_one c i =
    let expect_ok line =
      match P.parse_response (C.call_raw c line) with
      | Ok { P.payload = Ok _; _ } -> ()
      | Ok { P.payload = Error (code, msg); _ } ->
        Alcotest.failf "request %d failed: %s: %s" i (P.code_name code) msg
      | Error msg -> Alcotest.failf "request %d: undecodable: %s" i msg
    in
    let expect_err line code =
      match P.parse_response (C.call_raw c line) with
      | Ok { P.payload = Error (got, _); _ } when got = code -> ()
      | _ -> Alcotest.failf "request %d: expected %s" i (P.code_name code)
    in
    match i mod 10 with
    | 0 -> expect_ok {|{"type":"ping"}|}
    | 1 -> expect_ok {|{"type":"table1","rows":4,"cols":4}|}
    | 2 -> expect_ok {|{"type":"paths","rows":3,"cols":3}|}
    | 3 -> expect_err "!! not json !!" P.Parse_error
    | 4 -> expect_err {|{"type":"warp"}|} P.Unknown_type
    | 5 -> expect_ok {|{"type":"stats"}|}
    | 6 ->
      expect_ok
        (J.to_string
           (J.Obj
              [
                ("type", J.String "run_deck");
                ( "deck",
                  J.String "soak\nv1 a 0 dc 1\nr1 a b 1k\nr2 b 0 1k\n.op\n.print v(b)\n.end\n"
                );
              ]))
    | 7 ->
      expect_err
        (J.to_string
           (J.Obj [ ("type", J.String "run_deck"); ("deck", J.String "t\nq1 a b c\n.end\n") ]))
        P.Deck_error
    | _ ->
      expect_ok
        (J.to_string
           (J.Obj
              [
                ("type", J.String "dc_op");
                ("expr", J.String exprs.(i mod 2));
                ("state", J.Int (i mod 4));
              ]))
  in
  let round offset n_per_conn =
    let worker k =
      let c = C.connect (C.Unix_socket path) in
      Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
      for i = 0 to n_per_conn - 1 do
        send_one c (offset + (k * n_per_conn) + i)
      done
    in
    let threads = List.init 3 (fun k -> Thread.create worker k) in
    List.iter Thread.join threads
  in
  round 0 250;  (* warm-up: 750 requests, caches filled *)
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  round 750 250;
  round 1500 250;
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let growth = float_of_int (live1 - live0) /. float_of_int live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live heap steady over 2250 requests (growth %.1f%%)" (100.0 *. growth))
    true (growth < 0.10);
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  Alcotest.(check bool) "daemon alive after soak" true (C.ping c);
  (* 2250 soak requests + the ping above + this stats request itself *)
  Alcotest.(check int) "every request answered, none dropped" 2252
    (get_server_stat c "requests");
  let tel = Engine.telemetry (S.engine t) in
  Alcotest.(check bool) "cross-request cache hits accrued" true
    (tel.Engine.cache.Lattice_engine.Cache.hits > 0)

let test_daemon_compute_handlers () =
  with_server @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let field result name =
    match J.member name result with
    | Some v -> v
    | None -> Alcotest.failf "response carries no %s" name
  in
  (match
     C.call c ~type_:"transient"
       [ ("expr", J.String "a&b"); ("bit_time", J.Float 20e-9); ("h", J.Float 2e-9) ]
   with
  | Ok result ->
    Alcotest.(check bool) "transient samples recorded" true
      (match field result "samples" with J.Int n -> n > 10 | _ -> false);
    Alcotest.(check bool) "transient output bounded" true
      (match field result "output_max_v" with J.Float v -> v <= 1.3 | _ -> false)
  | Error (code, msg) -> Alcotest.failf "transient failed: %s: %s" (P.code_name code) msg);
  (match
     C.call c ~type_:"yield"
       [ ("expr", J.String "a&b"); ("samples", J.Int 5); ("sigma_vth", J.Float 0.03) ]
   with
  | Ok result ->
    Alcotest.(check bool) "yield in [0,1]" true
      (match field result "yield" with
      | J.Float y -> y >= 0.0 && y <= 1.0
      | J.Int (0 | 1) -> true
      | _ -> false)
  | Error (code, msg) -> Alcotest.failf "yield failed: %s: %s" (P.code_name code) msg);
  match C.call c ~type_:"defects" [ ("expr", J.String "a&b") ] with
  | Ok result ->
    let n = function J.Int n -> n | _ -> Alcotest.fail "non-integer count" in
    let samples = n (field result "samples") in
    Alcotest.(check bool) "defect samples enumerated" true (samples > 0);
    Alcotest.(check int) "defect classes partition the samples" samples
      (n (field result "functional") + n (field result "degraded")
      + n (field result "faulty")
      + n (field result "non_convergent"))
  | Error (code, msg) -> Alcotest.failf "defects failed: %s: %s" (P.code_name code) msg

(* the daemon takes the path count as the histogram's sum *)
let test_daemon_paths_count () =
  with_server @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  for rows = 2 to 8 do
    for cols = 2 to 8 do
      let label = Printf.sprintf "paths %dx%d" rows cols in
      match C.call c ~type_:"paths" [ ("rows", J.Int rows); ("cols", J.Int cols) ] with
      | Ok result ->
        Alcotest.(check bool) (label ^ " count") true
          (J.member "count" result
          = Some (J.Int (Lattice_core.Paths.count_irredundant ~rows ~cols)));
        Alcotest.(check bool) (label ^ " histogram") true
          (J.member "histogram" result
          = Some
              (J.List
                 (Array.to_list
                    (Array.map (fun n -> J.Int n) (Lattice_core.Paths.length_histogram ~rows ~cols)))))
      | Error (code, msg) -> Alcotest.failf "%s failed: %s: %s" label (P.code_name code) msg
    done
  done

let test_daemon_run_deck () =
  with_server @@ fun t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* happy path: a small divider deck with .op and a .dc sweep *)
  let deck =
    "divider over the wire\nv1 in 0 dc 1\nr1 in out 1k\nr2 out 0 1k\n\
     .op\n.dc v1 0 1 0.5\n.print v(out)\n.end\n"
  in
  (match C.call c ~type_:"run_deck" [ ("deck", J.String deck) ] with
  | Error (code, msg) -> Alcotest.failf "run_deck failed: %s: %s" (P.code_name code) msg
  | Ok result ->
    Alcotest.(check bool) "digest is a hex string" true
      (match J.member "digest" result with
      | Some (J.String d) -> String.length d = 32
      | _ -> false);
    (match J.member "analyses" result with
    | Some (J.List [ op; dc ]) ->
      Alcotest.(check bool) "op result typed" true
        (J.member "type" op = Some (J.String "op"));
      Alcotest.(check bool) "op v(out) is vdd/2" true
        (match Option.bind (J.member "nodes" op) (J.member "out") with
        | Some (J.Float v) -> Float.abs (v -. 0.5) < 1e-9
        | _ -> false);
      Alcotest.(check bool) "dc sweep has 3 points" true
        (J.member "points" dc = Some (J.Int 3))
    | _ -> Alcotest.fail "expected exactly two analyses"));
  (* malformed decks: structured deck_error carrying line/col, and the
     connection (and daemon) survive the whole table *)
  let expect_deck_error deck line col =
    let req = J.to_string (J.Obj [ ("type", J.String "run_deck"); ("deck", J.String deck) ]) in
    let raw = C.call_raw c req in
    match J.parse raw with
    | J.Obj _ as resp ->
      let err =
        match J.member "error" resp with
        | Some e -> e
        | None -> Alcotest.failf "no error object in %s" raw
      in
      Alcotest.(check bool) "code is deck_error" true
        (J.member "code" err = Some (J.String "deck_error"));
      Alcotest.(check bool) (Printf.sprintf "line %d reported" line) true
        (J.member "line" err = Some (J.Int line));
      Alcotest.(check bool) (Printf.sprintf "col %d reported" col) true
        (J.member "col" err = Some (J.Int col))
    | _ | (exception J.Parse_error _) -> Alcotest.failf "undecodable response %s" raw
  in
  expect_deck_error "t\nq1 a b c\n.end\n" 2 1;  (* unsupported card *)
  expect_deck_error "t\nr1 a 0 1k\nr1 a 0 2k\n.end\n" 3 1;  (* duplicate *)
  expect_deck_error "t\n.subckt s a b\nr1 a b 1k\n.end\n" 2 1;  (* unterminated *)
  expect_deck_error "t\nr1 a 0 12q3\n.end\n" 2 8;  (* bad value *)
  (* oversized work is refused by server limits, not truncated, and
     before any analysis runs: a client's request to fix, not a
     divergence *)
  let run_deck deck = J.to_string (J.Obj [ ("type", J.String "run_deck"); ("deck", J.String deck) ]) in
  let solves () = (Engine.telemetry (S.engine t)).Engine.dc_solves in
  expect_error c (run_deck "t\nv1 a 0 dc 0\nr1 a 0 1k\n.dc v1 0 1 1u\n.end\n") P.Bad_request;
  expect_error c (run_deck "t\nv1 a 0 dc 1\nr1 a 0 1k\n.tran 1n 1m\n.end\n") P.Bad_request;
  let before = solves () in
  expect_error c (run_deck "t\nv1 a 0 dc 1\nr1 a 0 3.3k\n.op\n.tran 1n 1m\n.end\n") P.Bad_request;
  Alcotest.(check int) "the refused deck's .op solved nothing" before (solves ());
  (* 11 nested two-instance subcircuits elaborate to 4,096 unknowns: a
     deck_error at the top-level X card, past the parser's cap *)
  expect_deck_error (Oracle.nested_deck ~internal:true 11) 51 1;
  Alcotest.(check int) "the nested deck's .op solved nothing" before (solves ());
  (* hubs with 256 spokes and with 2,047 (at the unknown cap) are
     answered *)
  List.iter
    (fun levels ->
      match C.call c ~type_:"run_deck" [ ("deck", J.String (Oracle.hub_deck levels)) ] with
      | Error (code, msg) -> Alcotest.failf "hub deck failed: %s: %s" (P.code_name code) msg
      | Ok result ->
        Alcotest.(check bool) "hub deck v(hub)" true
          (match J.member "analyses" result with
          | Some (J.List [ op ]) -> (
            match Option.bind (J.member "nodes" op) (J.member "hub") with
            | Some (J.Float v) -> Float.abs (v -. Oracle.hub_volts levels) < 1e-10
            | _ -> false)
          | _ -> false))
    [ [ 8 ]; Oracle.hub_at_cap ];
  Alcotest.(check bool) "daemon alive after deck table" true (C.ping c)

(* --- observability over the wire -------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* a transient request gets the deck path's step cap: 8 states x 1 us at
   1 ps steps is 8e6 steps, refused before the circuit (and its recorded
   waveform) is built rather than run until its deadline *)
let test_daemon_transient_step_cap () =
  with_server @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match
     C.call c ~deadline_s:2.0 ~type_:"transient"
       [ ("expr", J.String "a ^ b ^ c"); ("bit_time", J.Float 1e-6); ("h", J.Float 1e-12) ]
   with
  | Error (P.Bad_request, msg) ->
    Alcotest.(check bool) ("the answer names the limit: " ^ msg) true (contains ~sub:"20000" msg)
  | Error (code, msg) -> Alcotest.failf "expected bad_request, got %s: %s" (P.code_name code) msg
  | Ok _ -> Alcotest.fail "an 8e6-step transient was run");
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 1.0);
  Alcotest.(check bool) "daemon alive" true (C.ping c)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let test_daemon_flight_dump_carries_trace () =
  (* acceptance: a deadline-killed request leaves a flight dump in the
     spool whose daemon-side spans carry the client's trace_id,
     parent_span, and request id — wire-level propagation verified
     structurally, over a live socket *)
  let flight = temp_dir "ftl-flight" in
  Fun.protect ~finally:(fun () -> rm_rf flight) @@ fun () ->
  let ring_was = Lattice_obs.Ring.on () in
  Lattice_obs.Ring.set_enabled true;
  Fun.protect ~finally:(fun () -> Lattice_obs.Ring.set_enabled ring_was) @@ fun () ->
  with_server ~allow_sleep:true ~flight_dir:flight @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (match
     P.parse_response
       (C.call_raw c
          {|{"type":"sleep","id":"kill-me","deadline_s":0.05,"trace_id":"cli-trace-7","parent_span":"cli-span-2","seconds":5.0}|})
   with
  | Ok { P.payload = Error (P.Timeout, _); _ } -> ()
  | Ok { P.payload = Error (code, msg); _ } ->
    Alcotest.failf "expected timeout, got %s: %s" (P.code_name code) msg
  | Ok { P.payload = Ok _; _ } -> Alcotest.fail "sleep outlived its deadline"
  | Error msg -> Alcotest.failf "undecodable response: %s" msg);
  (* the dump lands just after the timeout response ships; poll the
     counter (incremented only once the spool file is fully written) *)
  let rec wait_dump tries =
    if get_server_stat c "flight_dumps" < 1 then
      if tries = 0 then Alcotest.fail "timeout never produced a flight dump"
      else begin
        Thread.delay 0.02;
        wait_dump (tries - 1)
      end
  in
  wait_dump 200;
  let files = Sys.readdir flight in
  Alcotest.(check bool) "spool file written" true (Array.length files >= 1);
  Alcotest.(check bool) "spool names prefixed flight-" true
    (Array.for_all (fun f -> String.length f > 7 && String.sub f 0 7 = "flight-") files);
  let dump =
    String.concat "\n"
      (Array.to_list (Array.map (fun f -> read_file (Filename.concat flight f)) files))
  in
  Alcotest.(check bool) "dump holds the killed request's handler span" true
    (contains ~sub:{|"name":"serve.handle"|} dump);
  Alcotest.(check bool) "daemon spans carry the request id" true
    (contains ~sub:{|"req_id":"kill-me"|} dump);
  Alcotest.(check bool) "daemon spans carry the client trace id" true
    (contains ~sub:{|"trace_id":"cli-trace-7"|} dump);
  Alcotest.(check bool) "daemon spans link to the client span" true
    (contains ~sub:{|"parent_span":"cli-span-2"|} dump);
  (* every dump line is one self-contained chrome-trace "X" event *)
  List.iter
    (fun line ->
      if line <> "" then
        match J.parse line with
        | J.Obj _ as e ->
          Alcotest.(check bool) "chrome X event" true (J.member "ph" e = Some (J.String "X"))
        | _ -> Alcotest.failf "non-object dump line %s" line
        | exception J.Parse_error _ -> Alcotest.failf "unparseable dump line %s" line)
    (String.split_on_char '\n' dump)

let test_daemon_stats_window_and_metrics_text () =
  with_server @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  Alcotest.(check bool) "ping 1" true (C.ping c);
  Alcotest.(check bool) "ping 2" true (C.ping c);
  (match C.call c ~type_:"dc_op" [ ("expr", J.String "a&b"); ("state", J.Int 1) ] with
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "dc_op failed: %s: %s" (P.code_name code) msg);
  let stats = C.stats c in
  let mem keys = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some stats) keys in
  let num keys =
    match mem keys with
    | Some (J.Int n) -> float_of_int n
    | Some (J.Float f) -> f
    | _ -> Alcotest.failf "stats carries no %s" (String.concat "." keys)
  in
  (* pinned stats shape: window object + the new server counters *)
  Alcotest.(check bool) "window.window_s is 60s" true (num [ "window"; "window_s" ] = 60.0);
  Alcotest.(check bool) "window.inflight present" true (mem [ "window"; "inflight" ] <> None);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "window.all.%s present" f)
        true
        (mem [ "window"; "all"; f ] <> None))
    [ "count"; "errors"; "timeouts"; "rate_per_s"; "p50_ms"; "p95_ms"; "p99_ms"; "max_ms" ];
  Alcotest.(check bool) "window counted the pings" true
    (num [ "window"; "by_type"; "ping"; "count" ] >= 2.0);
  Alcotest.(check bool) "window counted the dc_op" true
    (num [ "window"; "by_type"; "dc_op"; "count" ] >= 1.0);
  Alcotest.(check bool) "window has no errors" true (num [ "window"; "all"; "errors" ] = 0.0);
  (* nearest-rank on log buckets is monotone; the top rank is the exact max *)
  Alcotest.(check bool) "percentiles ordered" true
    (num [ "window"; "all"; "p50_ms" ] <= num [ "window"; "all"; "p99_ms" ]
    && num [ "window"; "all"; "p99_ms" ]
       <= (num [ "window"; "all"; "max_ms" ] *. Float.sqrt 2.0) +. 1e-9);
  Alcotest.(check int) "no timeouts yet" 0 (get_server_stat c "request_timeouts");
  Alcotest.(check int) "no dumps yet" 0 (get_server_stat c "flight_dumps");
  (* the same window, rendered as Prometheus exposition text *)
  match C.call c ~type_:"metrics_text" [] with
  | Error (code, msg) -> Alcotest.failf "metrics_text failed: %s: %s" (P.code_name code) msg
  | Ok result ->
    Alcotest.(check bool) "content type pinned" true
      (J.member "content_type" result = Some (J.String "text/plain; version=0.0.4"));
    let text =
      match J.member "text" result with
      | Some (J.String s) -> s
      | _ -> Alcotest.fail "metrics_text carries no text"
    in
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "exposition has %s" sub) true (contains ~sub text))
      [
        "# TYPE ftl_requests_total counter";
        "# TYPE ftl_uptime_seconds gauge";
        "# TYPE ftl_request_duration_seconds summary";
        {|ftl_request_duration_seconds{type="all",quantile="0.5"}|};
        {|ftl_request_duration_seconds{type="ping",quantile="0.99"}|};
        {|ftl_request_duration_seconds_count{type="dc_op"}|};
        {|ftl_window_errors{type="all"}|};
        {|ftl_window_timeouts{type="ping"}|};
        "ftl_engine_dc_solves_total";
        "ftl_flight_dumps_total";
        "ftl_window_seconds 60";
      ]

let test_daemon_access_log () =
  let dir = temp_dir "ftl-access" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log = Filename.concat dir "access.jsonl" in
  with_server ~allow_sleep:true ~access_log_path:log @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  Alcotest.(check bool) "ping ok" true (C.ping c);
  (match
     C.call c ~id:(J.String "traced-1") ~trace_id:"trace-al-1" ~type_:"dc_op"
       [ ("expr", J.String "a|b"); ("state", J.Int 2) ]
   with
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "dc_op failed: %s: %s" (P.code_name code) msg);
  expect_error c "garbage" P.Parse_error;
  (match
     C.call c ~id:(J.String "late-1") ~deadline_s:0.05 ~type_:"sleep"
       [ ("seconds", J.Float 2.0) ]
   with
  | Error (P.Timeout, _) -> ()
  | _ -> Alcotest.fail "expected timeout");
  (* four requests, one JSONL line each; worker-side lines land just
     after their response ships, so poll *)
  let lines_of () =
    if Sys.file_exists log then
      String.split_on_char '\n' (read_file log) |> List.filter (fun l -> l <> "")
    else []
  in
  let rec wait tries =
    let ls = lines_of () in
    if List.length ls >= 4 then ls
    else if tries = 0 then Alcotest.failf "access log has %d lines, want 4" (List.length ls)
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  let parsed =
    List.map
      (fun l ->
        match J.parse l with
        | J.Obj _ as j -> j
        | _ -> Alcotest.failf "access line is not an object: %s" l
        | exception J.Parse_error _ -> Alcotest.failf "unparseable access line: %s" l)
      (wait 200)
  in
  (* every line carries the full pinned field set *)
  List.iter
    (fun j ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (Printf.sprintf "field %s present" k) true (J.member k j <> None))
        [
          "ts"; "id"; "type"; "outcome"; "duration_ns"; "cache_hits"; "dc_solves"; "retries";
          "trace_id";
        ])
    parsed;
  let find ty = List.find_opt (fun j -> J.member "type" j = Some (J.String ty)) parsed in
  (match find "ping" with
  | Some j ->
    Alcotest.(check bool) "ping outcome ok" true (J.member "outcome" j = Some (J.String "ok"))
  | None -> Alcotest.fail "no ping access line");
  (match find "dc_op" with
  | Some j ->
    Alcotest.(check bool) "dc_op carries the client trace id" true
      (J.member "trace_id" j = Some (J.String "trace-al-1"));
    Alcotest.(check bool) "dc_op id logged" true
      (J.member "id" j = Some (J.String "traced-1"));
    Alcotest.(check bool) "dc_op attribution: solves counted" true
      (match J.member "dc_solves" j with Some (J.Int n) -> n >= 1 | _ -> false)
  | None -> Alcotest.fail "no dc_op access line");
  (match find "malformed" with
  | Some j ->
    Alcotest.(check bool) "malformed outcome is the error code" true
      (J.member "outcome" j = Some (J.String (P.code_name P.Parse_error)))
  | None -> Alcotest.fail "no malformed access line");
  match find "sleep" with
  | Some j ->
    Alcotest.(check bool) "sleep outcome timeout" true
      (J.member "outcome" j = Some (J.String (P.code_name P.Timeout)))
  | None -> Alcotest.fail "no sleep access line"

(* --- dc_op: circuit memo and inline hits ---------------------------------- *)

(* the access log's complete lines so far, parsed *)
let access_lines log =
  if Sys.file_exists log then
    String.split_on_char '\n' (read_file log)
    |> List.filter_map (fun l ->
           match J.parse l with j -> Some j | exception J.Parse_error _ -> None)
  else []

(* Every counter of the daemon's and the engine's scopes reads the same
   in [stats], [metrics_text], the engine's telemetry and summary, and
   the process-wide registry, read at rest after cold and hot dc_ops, a
   malformed frame and a timed-out request. *)
let test_daemon_counters_agree () =
  let module M = Lattice_obs.Metrics in
  M.reset ();
  M.set_enabled true;
  Fun.protect ~finally:(fun () ->
      M.set_enabled false;
      M.reset ())
  @@ fun () ->
  with_server ~allow_sleep:true @@ fun t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let dc_op state =
    match C.call c ~type_:"dc_op" [ ("expr", J.String "a b + c"); ("state", J.Int state) ] with
    | Ok _ -> ()
    | Error (code, msg) -> Alcotest.failf "dc_op failed: %s: %s" (P.code_name code) msg
  in
  dc_op 3;
  dc_op 3;
  dc_op 5;
  expect_error c "with\000nul" P.Invalid_frame;
  (match C.call c ~deadline_s:0.05 ~type_:"sleep" [ ("seconds", J.Float 2.0) ] with
  | Error (P.Timeout, _) -> ()
  | _ -> Alcotest.fail "expected timeout");
  (* every count was made before its answer was written *)
  let stats = S.stats_json t in
  let text = S.metrics_text t in
  let tel = Engine.telemetry (S.engine t) in
  let summary = Engine.summary (S.engine t) in
  let registry = M.snapshot () in
  let cache = tel.Engine.cache in
  let module Ca = Lattice_engine.Cache in
  (* (stats path, registry name, exposition name, telemetry value) *)
  let server key exposition = ([ "server"; key ], "serve." ^ key, exposition, None) in
  let engine key v = ([ "engine"; key ], "engine." ^ key, "ftl_engine_" ^ key ^ "_total", Some v) in
  let cache_c key v =
    ([ "engine"; "cache"; key ], "engine.cache." ^ key, "ftl_engine_cache_" ^ key ^ "_total", Some v)
  in
  let rows =
    [
      server "connections_total" "ftl_connections_total";
      server "requests" "ftl_requests_total";
      server "ok" "ftl_ok_total";
      server "errors" "ftl_errors_total";
      server "overloaded" "ftl_overloaded_total";
      server "quota_rejected" "ftl_quota_rejected_total";
      server "malformed" "ftl_malformed_total";
      server "request_timeouts" "ftl_request_timeouts_total";
      server "flight_dumps" "ftl_flight_dumps_total";
      engine "jobs" tel.Engine.jobs;
      engine "dc_solves" tel.Engine.dc_solves;
      engine "newton_iterations" tel.Engine.newton_total;
      engine "newton_failed_rungs" tel.Engine.newton_failed_rungs;
      engine "retries" tel.Engine.retries;
      engine "timeouts" tel.Engine.timeouts;
      engine "job_failures" tel.Engine.job_failures;
      cache_c "hits" cache.Ca.hits;
      cache_c "misses" cache.Ca.misses;
      cache_c "evictions" cache.Ca.evictions;
    ]
  in
  let text_lines = String.split_on_char '\n' text in
  let stat path =
    match List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some stats) path with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "stats carries no %s" (String.concat "." path)
  in
  List.iter
    (fun (path, reg, expo, tel_v) ->
      let v = stat path in
      Alcotest.(check (option int)) (reg ^ " in the registry") (Some v)
        (match List.assoc_opt reg registry with Some (M.Counter_value n) -> Some n | _ -> None);
      Alcotest.(check bool) (expo ^ " in metrics_text") true
        (List.mem (Printf.sprintf "%s %d" expo v) text_lines
        && List.mem (Printf.sprintf "# TYPE %s counter" expo) text_lines);
      Option.iter (fun tv -> Alcotest.(check int) (reg ^ " in telemetry") v tv) tel_v)
    rows;
  Alcotest.(check int) "metrics_text renders exactly the counters of stats" (List.length rows)
    (List.length (List.filter (String.ends_with ~suffix:" counter") text_lines));
  Alcotest.(check bool) "no _total_total" false (contains ~sub:"_total_total" text);
  List.iter
    (fun sub -> Alcotest.(check bool) ("summary has " ^ sub) true (contains ~sub summary))
    [
      Printf.sprintf "| %d jobs |" (stat [ "engine"; "jobs" ]);
      Printf.sprintf "| %d dc solves, cache %d/%d hits" (stat [ "engine"; "dc_solves" ])
        (stat [ "engine"; "cache"; "hits" ])
        (stat [ "engine"; "cache"; "hits" ] + stat [ "engine"; "cache"; "misses" ]);
      Printf.sprintf "%d evictions" (stat [ "engine"; "cache"; "evictions" ]);
      Printf.sprintf "| %d newton iters (%d in failed rungs)"
        (stat [ "engine"; "newton_iterations" ])
        (stat [ "engine"; "newton_failed_rungs" ]);
    ];
  (* the traffic itself: 5 requests, 2 solves, 1 hit, 1 malformed, 1 timeout *)
  Alcotest.(check (list int)) "requests, malformed, timeouts, solves, hits" [ 5; 1; 1; 2; 1 ]
    [
      stat [ "server"; "requests" ];
      stat [ "server"; "malformed" ];
      stat [ "server"; "request_timeouts" ];
      stat [ "engine"; "dc_solves" ];
      stat [ "engine"; "cache"; "hits" ];
    ]

(* An oversized frame and a NUL frame are requests like any other: each
   leaves one access line, so the log holds one line per counted request. *)
let test_daemon_frame_errors_logged () =
  let dir = temp_dir "ftl-access" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log = Filename.concat dir "access.jsonl" in
  with_server ~max_frame:256 ~access_log_path:log @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  Alcotest.(check bool) "ping" true (C.ping c);
  expect_error c (Printf.sprintf {|{"type":"ping","pad":"%s"}|} (String.make 300 'x'))
    P.Frame_too_long;
  expect_error c "with\000nul" P.Invalid_frame;
  expect_error c {|{"type":"warp"}|} P.Unknown_type;
  let requests = get_server_stat c "requests" in
  Alcotest.(check int) "five requests counted" 5 requests;
  (* the stats request's own line lands just after its answer: poll *)
  let rec wait tries =
    let ls = access_lines log in
    if List.length ls >= requests || tries = 0 then ls
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  let lines = wait 200 in
  Alcotest.(check int) "one access line per request" requests (List.length lines);
  List.iter
    (fun outcome ->
      Alcotest.(check int) (outcome ^ ": one malformed line") 1
        (List.length
           (List.filter
              (fun j ->
                J.member "type" j = Some (J.String "malformed")
                && J.member "outcome" j = Some (J.String outcome))
              lines)))
    [ "frame_too_long"; "invalid_frame"; "unknown_type" ]

let test_daemon_dc_op_inline_hit () =
  let dir = temp_dir "ftl-access" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log = Filename.concat dir "access.jsonl" in
  with_server ~access_log_path:log @@ fun t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let dc_op id ?vdd state =
    let line =
      J.to_string
        (J.Obj
           ([
              ("type", J.String "dc_op");
              ("id", J.String id);
              ("expr", J.String "a b + c");
              ("state", J.Int state);
            ]
           @ match vdd with None -> [] | Some v -> [ ("vdd", J.Float v) ]))
    in
    match P.parse_response (C.call_raw c line) with
    | Ok { P.payload = Ok result; _ } -> J.to_string result
    | _ -> Alcotest.failf "dc_op %s failed" id
  in
  (* q1 builds, memoizes and solves on a worker; q2 (the same request
     with the default vdd spelled out) is answered on the reader; q3 is
     memoized but cold, so it is queued and solved; q4 hits again *)
  let q1 = dc_op "q1" 5 in
  let q2 = dc_op "q2" ~vdd 5 in
  let q3 = dc_op "q3" ~vdd 6 in
  let q4 = dc_op "q4" 6 in
  Alcotest.(check string) "explicit default vdd: same payload" q1 q2;
  Alcotest.(check string) "cold then hot: same payload" q3 q4;
  Alcotest.(check (list (pair string (float 0.0)))) "one circuit memoized"
    [ ("a b + c", vdd) ] (S.memoized t);
  let tel = Engine.telemetry (S.engine t) in
  Alcotest.(check int) "one cache lookup per dc_op" 4
    (tel.Engine.cache.Lattice_engine.Cache.hits + tel.Engine.cache.Lattice_engine.Cache.misses);
  Alcotest.(check int) "two solves" 2 tel.Engine.dc_solves;
  Alcotest.(check int) "hot requests counted in the window" 4
    (match
       Option.bind (J.member "window" (C.stats c)) (fun w ->
           Option.bind (J.member "by_type" w) (fun b ->
               Option.bind (J.member "dc_op" b) (J.member "count")))
     with
    | Some (J.Int n) -> n
    | _ -> -1);
  (* a worker writes its access line just after its answer: poll *)
  let find id = List.find_opt (fun j -> J.member "id" j = Some (J.String id)) in
  let rec wait_lines tries =
    let ls = access_lines log in
    if List.for_all (fun id -> find id ls <> None) [ "q1"; "q2"; "q3"; "q4" ] then ls
    else if tries = 0 then
      Alcotest.failf "access log lacks a dc_op line: %s"
        (String.concat " " (List.map J.to_string ls))
    else begin
      Thread.delay 0.02;
      wait_lines (tries - 1)
    end
  in
  let lines = wait_lines 200 in
  let line id = Option.get (find id lines) in
  List.iter
    (fun (id, hits, solves) ->
      let j = line id in
      Alcotest.(check bool) (id ^ " ok") true (J.member "outcome" j = Some (J.String "ok"));
      Alcotest.(check bool) (Printf.sprintf "%s cache_hits %d" id hits) true
        (J.member "cache_hits" j = Some (J.Int hits));
      Alcotest.(check bool) (Printf.sprintf "%s dc_solves %d" id solves) true
        (J.member "dc_solves" j = Some (J.Int solves)))
    [ ("q2", 1, 0); ("q4", 1, 0); ("q3", 0, 1) ]

let test_daemon_hot_dc_op_beside_busy_worker () =
  (* the only worker is held by a gate (see the quota test) while it
     finishes a sleep; a hot dc_op is still answered, so it never waited
     for the worker *)
  let flight = temp_dir "ftl-flight" in
  Fun.protect ~finally:(fun () -> rm_rf flight) @@ fun () ->
  let g = gate () in
  let log line = if String.starts_with ~prefix:"flight dump (sleep" line then gate_wait g in
  with_server ~workers:1 ~allow_sleep:true ~flight_dir:flight ~slow_threshold_s:0.0 ~log
  @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  let busy = C.connect (C.Unix_socket path) in
  let watch = C.connect (C.Unix_socket path) in
  Fun.protect
    ~finally:(fun () ->
      gate_release g;
      List.iter C.close [ c; busy; watch ])
  @@ fun () ->
  let hot = {|{"type":"dc_op","expr":"a ^ b","state":2,"id":"hot"}|} in
  let cold = C.call_raw c hot in
  Alcotest.(check string) "warm answer" cold (C.call_raw c hot);
  C.send_raw busy {|{"type":"sleep","seconds":0.01,"id":"s"}|};
  wait_stats watch ~what:"the worker never took the sleep" ~tries:1000 (fun get ->
      get "queue_depth" = 0 && get "inflight" >= 1);
  C.send_raw c hot;
  let dc_op_count () =
    match
      List.fold_left
        (fun j k -> Option.bind j (J.member k))
        (Some (C.stats watch))
        [ "window"; "by_type"; "dc_op"; "count" ]
    with
    | Some (J.Int n) -> n
    | _ -> -1
  in
  let rec wait_answered tries =
    if dc_op_count () < 3 then
      if tries = 0 then Alcotest.fail "the hot dc_op waited for the busy worker"
      else begin
        Thread.delay 0.01;
        wait_answered (tries - 1)
      end
  in
  wait_answered 1000;
  Alcotest.(check int) "the worker is still held" 1 (get_server_stat watch "inflight");
  Alcotest.(check (option string)) "same answer" (Some cold) (C.recv_raw c)

let test_daemon_memo_bound () =
  with_server @@ fun t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let dc_op expr vdd =
    match
      C.call c ~type_:"dc_op"
        ([ ("expr", J.String expr); ("state", J.Int 1) ]
        @ match vdd with None -> [] | Some v -> [ ("vdd", J.Float v) ])
    with
    | Ok _ -> ()
    | Error (code, msg) -> Alcotest.failf "dc_op failed: %s: %s" (P.code_name code) msg
  in
  (* one hot circuit, asked for between 100 one-off supply voltages; it
     is resident each time it is asked for again, so it was never
     evicted and rebuilt *)
  let hot = ("a ^ b", Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd) in
  dc_op "a ^ b" None;
  for i = 1 to 100 do
    dc_op "a b" (Some (1.0 +. (0.004 *. float_of_int i)));
    if i mod 5 = 0 then begin
      Alcotest.(check bool) (Printf.sprintf "hot circuit resident after %d others" i) true
        (List.mem hot (S.memoized t));
      dc_op "a ^ b" None
    end
  done;
  let resident = S.memoized t in
  Alcotest.(check int) "the memo holds its bound" 16 (List.length resident);
  Alcotest.(check bool) "the hot circuit stays memoized" true (List.mem hot resident)

let test_daemon_hot_dc_op_after_shutdown () =
  with_server @@ fun _t path ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let hot () = C.call c ~type_:"dc_op" [ ("expr", J.String "a & b"); ("state", J.Int 3) ] in
  (match (hot (), hot ()) with
  | Ok a, Ok b -> Alcotest.(check string) "hot answer" (J.to_string a) (J.to_string b)
  | _ -> Alcotest.fail "dc_op failed");
  C.shutdown c;
  match hot () with
  | Error (P.Shutting_down, _) -> ()
  | Error (code, msg) -> Alcotest.failf "expected shutting_down, got %s: %s" (P.code_name code) msg
  | Ok _ -> Alcotest.fail "a hot dc_op was answered after shutdown"

let test_daemon_no_listener_rejected () =
  let t = S.create () in
  match S.start t with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "start without a listener must be rejected"

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip + determinism" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest test_json_generated;
          Alcotest.test_case "malformed documents rejected" `Quick test_json_rejects;
          Alcotest.test_case "number forms" `Quick test_json_numbers;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid envelopes" `Quick test_protocol_valid;
          Alcotest.test_case "malformed-request table" `Quick test_protocol_malformed_table;
          Alcotest.test_case "response rendering roundtrip" `Quick test_protocol_responses;
        ] );
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "overlong/NUL hardening" `Quick test_framing_hardening;
          Alcotest.test_case "unterminated flood" `Quick test_framing_huge_unterminated;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "malformed input never kills" `Quick test_daemon_malformed_never_kills;
          Alcotest.test_case "concurrent parity vs direct engine" `Quick
            test_daemon_parity_with_direct_engine;
          Alcotest.test_case "quota + backpressure" `Quick test_daemon_quota_and_backpressure;
          Alcotest.test_case "deadline timeout is structured" `Quick test_daemon_timeout_structured;
          Alcotest.test_case "transient over the step cap refused" `Quick
            test_daemon_transient_step_cap;
          Alcotest.test_case "tcp listener (ephemeral port)" `Quick test_daemon_tcp_listener;
          Alcotest.test_case "graceful shutdown drains in-flight" `Quick
            test_daemon_graceful_shutdown_drains;
          Alcotest.test_case "restart serves from the store" `Quick test_daemon_restart_store_warm;
          Alcotest.test_case "transient/yield/defects handlers" `Quick test_daemon_compute_handlers;
          Alcotest.test_case "paths count = histogram sum" `Quick test_daemon_paths_count;
          Alcotest.test_case "run_deck: results + error table" `Quick test_daemon_run_deck;
          Alcotest.test_case "flight dump carries the client trace" `Quick
            test_daemon_flight_dump_carries_trace;
          Alcotest.test_case "stats window + metrics_text pinned" `Quick
            test_daemon_stats_window_and_metrics_text;
          Alcotest.test_case "access log: lines, outcomes, attribution" `Quick
            test_daemon_access_log;
          Alcotest.test_case "counters agree across every view" `Quick
            test_daemon_counters_agree;
          Alcotest.test_case "frame errors: one access line each" `Quick
            test_daemon_frame_errors_logged;
          Alcotest.test_case "no listener rejected" `Quick test_daemon_no_listener_rejected;
          Alcotest.test_case "hot dc_op answered inline" `Quick test_daemon_dc_op_inline_hit;
          Alcotest.test_case "hot dc_op beside a busy worker" `Quick
            test_daemon_hot_dc_op_beside_busy_worker;
          Alcotest.test_case "circuit memo bound, hot circuit kept" `Quick test_daemon_memo_bound;
          Alcotest.test_case "hot dc_op refused after shutdown" `Quick
            test_daemon_hot_dc_op_after_shutdown;
        ] );
      ("soak", [ Alcotest.test_case "2250 mixed requests, 3 connections" `Quick test_daemon_soak ]);
    ]
