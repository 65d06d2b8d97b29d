module Sp = Lattice_spice
module Tt = Lattice_boolfn.Truthtable
module Engine = Lattice_engine.Engine
module Cancel = Lattice_spice.Cancel
module Metrics = Lattice_obs.Metrics
module Trace = Lattice_obs.Trace
module Ring = Lattice_obs.Ring
module Rolling = Lattice_obs.Rolling
module Spool = Lattice_obs.Spool
module Clock = Lattice_obs.Clock
module Second_chance = Lattice_engine.Cache.Second_chance
module Scope = Metrics.Scope

type config = {
  socket_path : string option;
  tcp_port : int option;
  tcp_host : string;
  domains : int option;
  store_dir : string option;
  workers : int;
  queue_capacity : int;
  max_inflight_per_client : int;
  default_deadline_s : float option;
  max_frame : int;
  drain_deadline_s : float;
  allow_sleep : bool;
  log : (string -> unit) option;
  (* request observability *)
  slow_threshold_s : float option;
      (* a request slower than this triggers a flight dump; [None]
         dumps only on errors/timeouts *)
  flight_dir : string option;  (* flight-recorder spool; None disables dumps *)
  access_log_path : string option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    tcp_host = "127.0.0.1";
    domains = None;
    store_dir = None;
    workers = 2;
    queue_capacity = 64;
    max_inflight_per_client = 16;
    default_deadline_s = Some 30.0;
    max_frame = 65536;
    drain_deadline_s = 10.0;
    allow_sleep = false;
    log = None;
    slow_threshold_s = None;
    flight_dir = Sys.getenv_opt "FTL_FLIGHT_DIR";
    access_log_path = None;
  }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  write_lock : Mutex.t;
  inflight : int Atomic.t;
  mutable dead : bool;  (* under [write_lock]: no further writes *)
  mutable fd_closed : bool;  (* under [write_lock] *)
}

type job = { jconn : conn; env : Protocol.envelope; enqueued_at : float }

(* The synthesized lattice circuit of one (expr, vdd), built once and
   rebound to each input state a dc_op asks for. *)
type circuit = { tt : Tt.t; lc : Sp.Lattice_circuit.t }

(* circuits kept, under second-chance eviction: the interactive working
   set stays while one-off vdd values pass through *)
let memo_capacity = 16

type t = {
  config : config;
  engine : Engine.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable qsize : int;  (* under [qlock] *)
  stopping : bool Atomic.t;
  lifecycle : Mutex.t;
  mutable torn_down : bool;  (* under [lifecycle] *)
  mutable started_at : float;
  mutable listeners : (Unix.file_descr * string) list;  (* fd, description *)
  mutable bound_port : int option;
  mutable accept_threads : Thread.t list;
  mutable worker_threads : Thread.t list;
  conns : (int, conn * Thread.t) Hashtbl.t;
  conns_lock : Mutex.t;
  next_cid : int Atomic.t;
  inflight_total : int Atomic.t;
  (* the daemon's scope: the counters behind [stats] and [metrics_text] *)
  scope : Scope.t;
  c_conns_total : Scope.counter;
  c_requests : Scope.counter;
  c_ok : Scope.counter;
  c_err : Scope.counter;
  c_overloaded : Scope.counter;
  c_quota : Scope.counter;
  c_malformed : Scope.counter;
  c_timeouts : Scope.counter;  (* requests killed by their deadline *)
  c_flight_dumps : Scope.counter;
  (* registry instruments, registered with the daemon *)
  m_queue_depth : Metrics.Gauge.t;
  m_inflight : Metrics.Gauge.t;
  m_queue_wait : Metrics.Histogram.t;
  m_handle : Metrics.Histogram.t;
  (* rolling SLO windows: one global, one per request type *)
  rolling_all : Rolling.t;
  rolling : (string, Rolling.t) Hashtbl.t;
  rolling_lock : Mutex.t;
  access : Spool.log option;
  memo : (string * float, circuit) Second_chance.t;  (* under [memo_lock] *)
  memo_lock : Mutex.t;
}

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.queue_capacity < 1 then invalid_arg "Server.create: queue_capacity must be >= 1";
  if config.max_inflight_per_client < 1 then
    invalid_arg "Server.create: max_inflight_per_client must be >= 1";
  let scope = Scope.create ~registry:"serve" () in
  let counter = Scope.counter scope in
  {
    config;
    engine = Engine.create ?domains:config.domains ?store_dir:config.store_dir ();
    queue = Queue.create ();
    qlock = Mutex.create ();
    qcond = Condition.create ();
    qsize = 0;
    stopping = Atomic.make false;
    lifecycle = Mutex.create ();
    torn_down = false;
    started_at = 0.0;
    listeners = [];
    bound_port = None;
    accept_threads = [];
    worker_threads = [];
    conns = Hashtbl.create 16;
    conns_lock = Mutex.create ();
    next_cid = Atomic.make 0;
    inflight_total = Atomic.make 0;
    scope;
    c_conns_total = counter "connections_total";
    c_requests = counter "requests";
    c_ok = counter "ok";
    c_err = counter "errors";
    c_overloaded = counter "overloaded";
    c_quota = counter "quota_rejected";
    c_malformed = counter "malformed";
    c_timeouts = counter "request_timeouts";
    c_flight_dumps = counter "flight_dumps";
    m_queue_depth = Metrics.gauge "serve.queue.depth";
    m_inflight = Metrics.gauge "serve.inflight";
    m_queue_wait = Metrics.histogram "serve.queue_wait.seconds";
    m_handle = Metrics.histogram "serve.handle.seconds";
    rolling_all = Rolling.create ();
    rolling = Hashtbl.create 16;
    rolling_lock = Mutex.create ();
    access =
      (match config.access_log_path with
      | None -> None
      | Some path ->
        Some (Spool.open_log ~path ()));
    memo = Second_chance.create ~capacity:memo_capacity;
    memo_lock = Mutex.create ();
  }

let engine t = t.engine
let port t = t.bound_port

let memoized t =
  Mutex.lock t.memo_lock;
  let keys = Second_chance.keys t.memo in
  Mutex.unlock t.memo_lock;
  keys

let log t fmt =
  Printf.ksprintf
    (fun line -> match t.config.log with None -> () | Some f -> f line)
    fmt

(* monotonic seconds for durations, deadlines and uptime; wall time is
   read only for timestamps (the access log's [ts]) *)
let now () = Clock.ns_to_s (Clock.now_ns ())

(* --- request handlers --------------------------------------------------- *)

(* [details] lands in the response's error object (e.g. line/col for a
   rejected deck); most handlers leave it empty *)
exception Handler_error of Protocol.error_code * string * (string * Json.t) list

let h_reject code fmt = Printf.ksprintf (fun m -> raise (Handler_error (code, m, []))) fmt

(* expression -> (truth table, nvars, synthesized lattice); the expensive
   circuit work downstream is what the engine cache memoizes *)
let grid_of_expr expr =
  match Lattice_boolfn.Expr.parse expr with
  | exception Lattice_boolfn.Expr.Parse_error msg -> h_reject Protocol.Bad_request "expr: %s" msg
  | ast, names ->
    let nvars = Array.length names in
    if nvars > 5 then
      h_reject Protocol.Bad_request
        "expr has %d variables; circuit-level requests support at most 5" nvars;
    let tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars in
    let grid =
      try (Lattice_synthesis.Altun_riedel.synthesize tt).Lattice_synthesis.Altun_riedel.grid
      with Lattice_synthesis.Altun_riedel.No_shared_literal _ | Invalid_argument _ ->
        h_reject Protocol.Bad_request "expr %S has no lattice realization here" expr
    in
    (tt, nvars, grid)

(* the circuit memo's key: an omitted vdd is the default one *)
let memo_key ~expr ~vdd =
  (expr, Option.value vdd ~default:Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd)

let memo_find t key =
  Mutex.lock t.memo_lock;
  let c = Second_chance.find t.memo key in
  Mutex.unlock t.memo_lock;
  c

(* The memoized circuit, built and memoized on a miss. Only workers
   build; readers only look up. The wave-free digest is filled before
   the circuit is shared, so rebinding it only reads it. *)
let circuit t ((expr, vdd) as key) =
  match memo_find t key with
  | Some c -> c
  | None ->
    let tt, _nvars, grid = grid_of_expr expr in
    let config = { Sp.Lattice_circuit.default_config with Sp.Lattice_circuit.vdd } in
    let lc =
      Sp.Lattice_circuit.build ~config grid ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd 0)
    in
    ignore (Sp.Netlist.wave_free_digest lc.Sp.Lattice_circuit.netlist);
    let c = { tt; lc } in
    Mutex.lock t.memo_lock;
    if not (Second_chance.mem t.memo key) then ignore (Second_chance.add t.memo key c);
    Mutex.unlock t.memo_lock;
    c

(* Every dc_op answers here, queued or inline: the circuit with only its
   input drivers rebound to [state], then [solve] — the engine's full
   dc_op on a worker, its memory-only lookup on a reader. [None] when
   [solve] finds nothing, else the answer, which raises [Handler_error]
   for a non-convergent solve. *)
let dc_op_answer c ~expr ~state ~solve =
  let nvars = Tt.nvars c.tt in
  if state >= 1 lsl nvars then
    h_reject Protocol.Bad_request "state %d out of range for %d variable(s) (max %d)" state
      nvars ((1 lsl nvars) - 1);
  let vdd = c.lc.Sp.Lattice_circuit.config.Sp.Lattice_circuit.vdd in
  let lc =
    Sp.Lattice_circuit.rebind c.lc ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd state)
  in
  let netlist = lc.Sp.Lattice_circuit.netlist in
  Option.map
    (fun r () ->
      match r with
      | Error f -> h_reject Protocol.Non_convergent "%s" (Sp.Dcop.pp_failure f)
      | Ok (x, diag) ->
        let v =
          match Sp.Netlist.find_node netlist lc.Sp.Lattice_circuit.output_node with
          | Some out -> Sp.Mna.voltage x out
          | None ->
            h_reject Protocol.Internal "circuit without its output node %s"
              lc.Sp.Lattice_circuit.output_node
        in
        (* the lattice is a pull-down network: the output is the complement *)
        let expected_high = not (Tt.eval c.tt state) in
        Json.Obj
          [
            ("expr", Json.String expr);
            ("state", Json.Int state);
            ("output_v", Protocol.json_float v);
            ("logic_high", Json.Bool (v > vdd /. 2.0));
            ("expected_high", Json.Bool expected_high);
            ("strategy", Json.String (Sp.Dcop.strategy_name diag.Sp.Dcop.strategy));
            ("newton_iterations", Json.Int diag.Sp.Dcop.newton_iterations);
          ])
    (solve netlist)

let handle_dc_op t ~cancel ~expr ~state ~vdd =
  let solve netlist = Some (Engine.dc_op t.engine ~cancel netlist) in
  let answer = dc_op_answer (circuit t (memo_key ~expr ~vdd)) ~expr ~state ~solve in
  Option.get answer ()

(* server-side limits: a daemon shared by many clients must not let one
   request monopolize a worker with a million-step transient *)
let deck_limits =
  { Lattice_deck.Runner.max_sweep_points = 256; max_tran_steps = 20_000 }

let handle_transient t ~cancel ~expr ~bit_time ~h =
  ignore t;
  let _tt, nvars, grid = grid_of_expr expr in
  let t_stop = float_of_int (1 lsl nvars) *. bit_time in
  (* counted as the deck path counts them, before anything is allocated *)
  let steps = Float.ceil (t_stop /. h) in
  if steps > float_of_int deck_limits.max_tran_steps then
    h_reject Protocol.Bad_request "transient has %.0f steps (limit %d)" steps
      deck_limits.max_tran_steps;
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let lc =
    Sp.Lattice_circuit.build grid
      ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time)
  in
  match
    Sp.Transient.run_diag ~cancel lc.Sp.Lattice_circuit.netlist ~h ~t_stop
      ~record:[ lc.Sp.Lattice_circuit.output_node ] ()
  with
  | Error (f : Sp.Transient.failure) ->
    h_reject Protocol.Non_convergent "transient failed at t=%g (dt=%g): %s"
      f.Sp.Transient.at_time f.Sp.Transient.dt
      (Sp.Dcop.pp_failure f.Sp.Transient.dc_failure)
  | Ok r ->
    let out = Sp.Transient.signal r lc.Sp.Lattice_circuit.output_node in
    let vmin = Array.fold_left Float.min infinity out in
    let vmax = Array.fold_left Float.max neg_infinity out in
    Json.Obj
      [
        ("expr", Json.String expr);
        ("t_stop", Protocol.json_float t_stop);
        ("samples", Json.Int (Array.length r.Sp.Transient.times));
        ("steps_taken", Json.Int r.Sp.Transient.stats.Sp.Transient.steps_taken);
        ("halvings", Json.Int r.Sp.Transient.stats.Sp.Transient.halvings);
        ("newton_iterations", Json.Int r.Sp.Transient.newton_iterations_total);
        ("output_min_v", Protocol.json_float vmin);
        ("output_max_v", Protocol.json_float vmax);
        ("output_final_v", Protocol.json_float out.(Array.length out - 1));
      ]

let handle_yield t ~cancel ~expr ~samples ~sigma_vth ~seed =
  let tt, _nvars, grid = grid_of_expr expr in
  let mc =
    Lattice_flow.Monte_carlo.run ~engine:t.engine ~cancel
      ~variation:{ Lattice_flow.Monte_carlo.sigma_vth; sigma_kp_rel = 0.1 }
      ~samples ~seed grid ~target:tt
  in
  (* the engine path scores cancelled dies instead of raising: surface a
     mid-campaign deadline as a timeout, not as a silently low yield *)
  Cancel.check cancel;
  Json.Obj
    [
      ("expr", Json.String expr);
      ("samples", Json.Int mc.Lattice_flow.Monte_carlo.samples);
      ("yield", Protocol.json_float mc.Lattice_flow.Monte_carlo.yield);
      ("v_low_mean", Protocol.json_float mc.Lattice_flow.Monte_carlo.v_low_mean);
      ("v_low_std", Protocol.json_float mc.Lattice_flow.Monte_carlo.v_low_std);
      ("v_high_mean", Protocol.json_float mc.Lattice_flow.Monte_carlo.v_high_mean);
    ]

let handle_defects t ~cancel ~expr ~all_classes =
  let tt, _nvars, grid = grid_of_expr expr in
  let module Fc = Lattice_flow.Fault_campaign in
  let classes =
    if all_classes then Sp.Defects.all_classes
    else [ Sp.Defects.Opens; Sp.Defects.Shorts ]
  in
  (* [defects] is a classification query: the response carries class
     counts, not remapped grids, so repair stays off; clients wanting
     repair run the CLI campaign *)
  let options = { Fc.default_options with Fc.classes; attempt_repair = false } in
  let rep = Fc.run ~engine:t.engine ~cancel ~options grid ~target:tt in
  Cancel.check cancel;
  Json.Obj
    [
      ("expr", Json.String expr);
      ("samples", Json.Int (Array.length rep.Fc.samples));
      ("functional", Json.Int rep.Fc.counts.Fc.functional);
      ("degraded", Json.Int rep.Fc.counts.Fc.degraded);
      ("faulty", Json.Int rep.Fc.counts.Fc.faulty);
      ("non_convergent", Json.Int rep.Fc.counts.Fc.non_convergent);
      ("detected", Json.Int rep.Fc.detected);
      ("silent", Json.Int rep.Fc.silent);
      ("test_vectors", Json.Int (List.length rep.Fc.test_set));
    ]

let handle_table1 ~rows ~cols =
  let count = Lattice_core.Table1.count ~rows ~cols in
  let fields =
    [ ("rows", Json.Int rows); ("cols", Json.Int cols); ("count", Json.Int count) ]
  in
  let fields =
    if rows <= 9 && cols <= 9 then
      fields @ [ ("paper", Json.Int (Lattice_core.Table1.paper_value ~rows ~cols)) ]
    else fields
  in
  Json.Obj fields

(* one enumeration: the count is the histogram's sum *)
let handle_paths ~rows ~cols =
  let hist = Lattice_core.Paths.length_histogram ~rows ~cols in
  let count =
    Array.fold_left
      (fun acc n ->
        if n > max_int - acc then h_reject Protocol.Internal "path count overflows an int";
        acc + n)
      0 hist
  in
  Json.Obj
    [
      ("rows", Json.Int rows);
      ("cols", Json.Int cols);
      ("count", Json.Int count);
      ("histogram", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) hist)));
    ]

let handle_run_deck t ~cancel ~deck ~smoke =
  match Lattice_deck.Deck.parse deck with
  | Error (e : Lattice_deck.Deck.error) ->
    raise
      (Handler_error
         ( Protocol.Deck_error,
           Printf.sprintf "%d:%d: %s" e.line e.col e.msg,
           [ ("line", Json.Int e.line); ("col", Json.Int e.col) ] ))
  | Ok d -> (
    (* a refused deck is the client's to fix: answered before any
       analysis runs, as a transient request past the same cap is *)
    Result.iter_error
      (h_reject Protocol.Bad_request "%s")
      (Lattice_deck.Runner.check_limits ~smoke ~limits:deck_limits d);
    match Lattice_deck.Runner.run ~engine:t.engine ~cancel ~smoke ~limits:deck_limits d with
    | Error msg -> h_reject Protocol.Non_convergent "%s" msg
    | Ok r ->
      let open Lattice_deck.Runner in
      let analysis_json = function
        | Op_result { strategy; rows } ->
          Json.Obj
            [
              ("type", Json.String "op");
              ("strategy", Json.String strategy);
              ( "nodes",
                Json.Obj (List.map (fun (n, v) -> (n, Protocol.json_float v)) rows) );
            ]
        | Dc_result { source; probes; rows } ->
          Json.Obj
            [
              ("type", Json.String "dc");
              ("source", Json.String source);
              ("points", Json.Int (List.length rows));
              ("probes", Json.List (List.map (fun p -> Json.String p) probes));
            ]
        | Tran_result { times; nodes; newton_iterations; _ } ->
          Json.Obj
            [
              ("type", Json.String "tran");
              ("samples", Json.Int (Array.length times));
              ("newton_iterations", Json.Int newton_iterations);
              ( "finals",
                Json.Obj
                  (List.map
                     (fun (n, samples) ->
                       (n, Protocol.json_float samples.(Array.length samples - 1)))
                     nodes) );
            ]
        | Ac_result { source; output; dc_gain; f_3db; points } ->
          Json.Obj
            [
              ("type", Json.String "ac");
              ("source", Json.String source);
              ("output", Json.String output);
              ("dc_gain", Protocol.json_float dc_gain);
              ( "f_3db",
                match f_3db with None -> Json.Null | Some f -> Protocol.json_float f );
              ("points", Json.Int (List.length points));
            ]
      in
      Json.Obj
        [
          ("title", Json.String r.title);
          ("digest", Json.String r.digest);
          ("analyses", Json.List (List.map (fun (_, res) -> analysis_json res) r.results));
        ])

let handle_sleep t ~cancel ~seconds =
  if not t.config.allow_sleep then
    h_reject Protocol.Bad_request "sleep requests are disabled on this server";
  (* sliced so a deadline still bites mid-sleep *)
  let until = now () +. seconds in
  let rec nap () =
    Cancel.check cancel;
    let left = until -. now () in
    if left > 0.0 then begin
      Thread.delay (Float.min left 0.05);
      nap ()
    end
  in
  nap ();
  Json.Obj [ ("slept", Protocol.json_float seconds) ]

let handle_compute t ~cancel (req : Protocol.request) =
  match req with
  | Protocol.Dc_op { expr; state; vdd } -> handle_dc_op t ~cancel ~expr ~state ~vdd
  | Protocol.Transient { expr; bit_time; h } -> handle_transient t ~cancel ~expr ~bit_time ~h
  | Protocol.Yield { expr; samples; sigma_vth; seed } ->
    handle_yield t ~cancel ~expr ~samples ~sigma_vth ~seed
  | Protocol.Defects { expr; all_classes } -> handle_defects t ~cancel ~expr ~all_classes
  | Protocol.Table1 { rows; cols } -> handle_table1 ~rows ~cols
  | Protocol.Paths { rows; cols } -> handle_paths ~rows ~cols
  | Protocol.Run_deck { deck; smoke } -> handle_run_deck t ~cancel ~deck ~smoke
  | Protocol.Sleep { seconds } -> handle_sleep t ~cancel ~seconds
  | Protocol.Ping | Protocol.Stats | Protocol.Metrics_text | Protocol.Shutdown ->
    (* handled inline by the reader; unreachable through the queue *)
    h_reject Protocol.Internal "control request reached the worker pool"

(* --- request observability ---------------------------------------------- *)

let rolling_for t name =
  Mutex.lock t.rolling_lock;
  let r =
    match Hashtbl.find_opt t.rolling name with
    | Some r -> r
    | None ->
      let r = Rolling.create () in
      Hashtbl.replace t.rolling name r;
      r
  in
  Mutex.unlock t.rolling_lock;
  r

let observe_window t ~name ~dur_ns ~outcome =
  let now_ns = Clock.now_ns () in
  let dur_s = float_of_int dur_ns /. 1e9 in
  Rolling.observe t.rolling_all ~now_ns ~dur_s ~outcome;
  Rolling.observe (rolling_for t name) ~now_ns ~dur_s ~outcome

(* the engine events a request counts in its own scope, sorted as its
   snapshot is *)
let attributed = [ "cache_hits"; "dc_solves"; "retries" ]

(* one JSONL line per request: correlation fields first, then the
   request's own counts *)
let access_line t ~id ~name ~outcome ~dur_ns ?request ?trace_id () =
  match t.access with
  | None -> ()
  | Some alog ->
    let counts =
      match request with
      | Some r -> Scope.snapshot (Metrics.Request.counts r)
      | None -> List.map (fun k -> (k, 0)) attributed
    in
    Spool.line alog
      (Json.to_string
         (Json.Obj
            ([
               ("ts", Protocol.json_float (Unix.gettimeofday ()));
               ("id", Option.value id ~default:Json.Null);
               ("type", Json.String name);
               ("outcome", Json.String outcome);
               ("duration_ns", Json.Int dur_ns);
             ]
            @ List.map (fun (k, v) -> (k, Json.Int v)) counts
            @ [ ("trace_id", match trace_id with None -> Json.Null | Some s -> Json.String s) ])))

let flight_dump t ~name ~outcome =
  match t.config.flight_dir with
  | None -> ()
  | Some dir -> (
    match Spool.write ~dir (Ring.dump_jsonl ()) with
    | Ok path ->
      Scope.incr t.c_flight_dumps;
      log t "flight dump (%s %s): %s" name outcome path
    | Error e -> log t "flight dump (%s %s) failed: %s" name outcome e)

(* the request id as an unquoted span/log label *)
let scalar_string = function Json.String s -> s | j -> Json.to_string j

(* --- stats -------------------------------------------------------------- *)

let window_snaps t =
  let now_ns = Clock.now_ns () in
  let all = Rolling.snapshot t.rolling_all ~now_ns in
  Mutex.lock t.rolling_lock;
  let per =
    Hashtbl.fold (fun name r acc -> (name, Rolling.snapshot r ~now_ns) :: acc) t.rolling []
  in
  Mutex.unlock t.rolling_lock;
  (all, List.sort (fun (a, _) (b, _) -> String.compare a b) per)

let snap_json (s : Rolling.snap) =
  Json.Obj
    [
      ("count", Json.Int s.Rolling.count);
      ("errors", Json.Int s.Rolling.errors);
      ("timeouts", Json.Int s.Rolling.timeouts);
      ("rate_per_s", Protocol.json_float s.Rolling.rate_per_s);
      ("p50_ms", Protocol.json_float (s.Rolling.p50_s *. 1e3));
      ("p95_ms", Protocol.json_float (s.Rolling.p95_s *. 1e3));
      ("p99_ms", Protocol.json_float (s.Rolling.p99_s *. 1e3));
      ("max_ms", Protocol.json_float (s.Rolling.max_s *. 1e3));
    ]

(* Every counter [stats] reports, read once and named as in the
   process-wide registry: the daemon's scope, then the engine's. [stats]
   and [metrics_text] each render one such reading in full, so they
   report the same counters under the same names. *)
let counters t = Scope.snapshot t.scope @ Engine.counters t.engine

(* the counters directly under [prefix] ("engine." holds "engine.jobs",
   not "engine.cache.hits"), as the JSON fields of one [stats] object *)
let fields prefix counters =
  let n = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name && not (String.contains_from name n '.') then
        Some (String.sub name n (String.length name - n), Json.Int v)
      else None)
    counters

let queue_depth t =
  Mutex.lock t.qlock;
  let d = t.qsize in
  Mutex.unlock t.qlock;
  d

let stats_json t =
  let counters = counters t in
  let cache = (Engine.telemetry t.engine).Engine.cache in
  Mutex.lock t.conns_lock;
  let live_conns = Hashtbl.length t.conns in
  Mutex.unlock t.conns_lock;
  Json.Obj
    [
      ( "server",
        Json.Obj
          ([
             ("uptime_s", Protocol.json_float (now () -. t.started_at));
             ("connections", Json.Int live_conns);
           ]
          @ fields "serve." counters
          @ [
              ("queue_depth", Json.Int (queue_depth t));
              ("queue_capacity", Json.Int t.config.queue_capacity);
              ("inflight", Json.Int (Atomic.get t.inflight_total));
              ("workers", Json.Int t.config.workers);
            ]) );
      ( "engine",
        Json.Obj
          ([ ("domains", Json.Int (Engine.domains t.engine)) ]
          @ fields "engine." counters
          @ [
              ( "cache",
                Json.Obj
                  (fields "engine.cache." counters
                  @ [
                      ("size", Json.Int cache.Lattice_engine.Cache.size);
                      ("capacity", Json.Int cache.Lattice_engine.Cache.capacity);
                    ]) );
              ( "store",
                match fields "engine.store." counters with [] -> Json.Null | fs -> Json.Obj fs );
              ( "store_dir",
                match Engine.store_dir t.engine with
                | None -> Json.Null
                | Some d -> Json.String d );
            ]) );
      (let all, per = window_snaps t in
       ( "window",
         Json.Obj
           [
             ("window_s", Protocol.json_float Rolling.window_s);
             ("inflight", Json.Int (Atomic.get t.inflight_total));
             ("all", snap_json all);
             ("by_type", Json.Obj (List.map (fun (n, s) -> (n, snap_json s)) per));
           ] ));
    ]

(* a counter's exposition name, after its place in [stats]:
   serve.requests -> ftl_requests_total,
   engine.cache.hits -> ftl_engine_cache_hits_total *)
let exposition_name name =
  let name =
    if String.starts_with ~prefix:"serve." name then String.sub name 6 (String.length name - 6)
    else name
  in
  let base = "ftl_" ^ String.map (function '.' -> '_' | c -> c) name in
  if String.ends_with ~suffix:"_total" base then base else base ^ "_total"

(* Prometheus-style exposition text: every counter of [stats], the
   daemon's gauges, and the rolling window rendered as one summary
   metric labelled by request type. Scrapers that only speak the
   exposition format get the same telemetry as [stats]. *)
let metrics_text t =
  let b = Buffer.create 4096 in
  let fmt v =
    if Float.is_nan v then "NaN"
    else if v = Float.infinity then "+Inf"
    else if v = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.9g" v
  in
  let metric name ty v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n%s %s\n" name ty name v)
  in
  let gauge name v = metric name "gauge" (fmt v) in
  gauge "ftl_uptime_seconds" (now () -. t.started_at);
  List.iter
    (fun (name, v) -> metric (exposition_name name) "counter" (string_of_int v))
    (counters t);
  gauge "ftl_queue_depth" (float_of_int (queue_depth t));
  gauge "ftl_queue_capacity" (float_of_int t.config.queue_capacity);
  gauge "ftl_inflight" (float_of_int (Atomic.get t.inflight_total));
  gauge "ftl_workers" (float_of_int t.config.workers);
  let all, per = window_snaps t in
  gauge "ftl_window_seconds" Rolling.window_s;
  Buffer.add_string b "# TYPE ftl_request_duration_seconds summary\n";
  let summary label (s : Rolling.snap) =
    let q quant v =
      Buffer.add_string b
        (Printf.sprintf "ftl_request_duration_seconds{type=%S,quantile=\"%s\"} %s\n" label
           quant (fmt v))
    in
    q "0.5" s.Rolling.p50_s;
    q "0.95" s.Rolling.p95_s;
    q "0.99" s.Rolling.p99_s;
    Buffer.add_string b
      (Printf.sprintf "ftl_request_duration_seconds_sum{type=%S} %s\n" label
         (fmt (if s.Rolling.count = 0 then 0.0 else s.Rolling.mean_s *. float_of_int s.Rolling.count)));
    Buffer.add_string b
      (Printf.sprintf "ftl_request_duration_seconds_count{type=%S} %d\n" label s.Rolling.count)
  in
  summary "all" all;
  List.iter (fun (name, s) -> summary name s) per;
  let windowed name pick =
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string b (Printf.sprintf "%s{type=\"all\"} %d\n" name (pick all));
    List.iter
      (fun (label, s) -> Buffer.add_string b (Printf.sprintf "%s{type=%S} %d\n" name label (pick s)))
      per
  in
  windowed "ftl_window_errors" (fun (s : Rolling.snap) -> s.Rolling.errors);
  windowed "ftl_window_timeouts" (fun (s : Rolling.snap) -> s.Rolling.timeouts);
  Buffer.contents b

(* --- response plumbing -------------------------------------------------- *)

let write_response t conn line =
  Mutex.lock conn.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_lock)
    (fun () ->
      if not (conn.dead || conn.fd_closed) then
        try Framing.write_frame conn.fd line
        with Unix.Unix_error _ ->
          conn.dead <- true;
          log t "conn %d: write failed, dropping connection" conn.cid)

let respond_ok t conn ~id result =
  Scope.incr t.c_ok;
  write_response t conn (Protocol.render_ok ~id result)

let respond_error ?details t conn ~id code msg =
  Scope.incr t.c_err;
  write_response t conn (Protocol.render_error ?details ~id code msg)

(* close the descriptor only when no writer can still reach it *)
let maybe_close t conn =
  Mutex.lock conn.write_lock;
  let close_now = conn.dead && (not conn.fd_closed) && Atomic.get conn.inflight = 0 in
  if close_now then conn.fd_closed <- true;
  Mutex.unlock conn.write_lock;
  if close_now then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_lock;
    Hashtbl.remove t.conns conn.cid;
    Mutex.unlock t.conns_lock
  end

(* --- admission + workers ------------------------------------------------ *)

let admit t conn env =
  if Atomic.get t.stopping then
    Error (Protocol.Shutting_down, "daemon is shutting down")
  else if Atomic.get conn.inflight >= t.config.max_inflight_per_client then begin
    Scope.incr t.c_quota;
    Error
      ( Protocol.Quota_exceeded,
        Printf.sprintf "connection quota of %d in-flight request(s) reached"
          t.config.max_inflight_per_client )
  end
  else begin
    Mutex.lock t.qlock;
    if t.qsize >= t.config.queue_capacity then begin
      Mutex.unlock t.qlock;
      Scope.incr t.c_overloaded;
      Error
        ( Protocol.Overloaded,
          Printf.sprintf "admission queue full (capacity %d); back off and retry"
            t.config.queue_capacity )
    end
    else begin
      Queue.push { jconn = conn; env; enqueued_at = now () } t.queue;
      t.qsize <- t.qsize + 1;
      Atomic.incr conn.inflight;
      Atomic.incr t.inflight_total;
      Metrics.Gauge.add t.m_queue_depth 1.0;
      Condition.signal t.qcond;
      Mutex.unlock t.qlock;
      Ok ()
    end
  end

(* every span recorded while a thread serves this request — worker
   thread and pool domains alike — carries its trace_id/parent_span/
   req_id tags, and the engine's solves, hits and retries count in its
   own scope *)
let request_context (env : Protocol.envelope) =
  let counts = Scope.create () in
  List.iter (fun name -> ignore (Scope.counter counts name)) attributed;
  let tag key = Option.map (fun v -> (key, v)) in
  Metrics.Request.make
    ~tags:
      (List.filter_map Fun.id
         [
           tag "trace_id" env.Protocol.trace_id;
           tag "parent_span" env.Protocol.parent_span;
           tag "req_id" (Option.map scalar_string env.Protocol.id);
         ])
    counts

(* A compute handler's outcome and the answer it owes *)
let run_handler t conn ~id ~name ~deadline_s f =
  match f () with
  | result -> (`Ok, fun () -> respond_ok t conn ~id result)
  | exception Handler_error (code, msg, details) ->
    (`Err code, fun () -> respond_error ~details t conn ~id code msg)
  | exception Cancel.Cancelled _ ->
    ( `Err Protocol.Timeout,
      fun () ->
        respond_error t conn ~id Protocol.Timeout
          (Printf.sprintf "request deadline of %gs exceeded" (Option.value deadline_s ~default:0.0))
    )
  | exception e ->
    log t "internal error handling %s: %s" name (Printexc.to_string e);
    (`Err Protocol.Internal, fun () -> respond_error t conn ~id Protocol.Internal (Printexc.to_string e))

(* Count a request, then answer it: the timeout counter and the windows
   first, so a client holding its answer finds the request in [stats].
   The duration stops here and leaves out the socket write. Queued,
   control and inline-hit answers all pass here. *)
let count_then_answer t ~name ~t0_ns (outcome, answer) =
  let outcome_name, roll =
    match outcome with
    | `Ok -> ("ok", Rolling.Ok)
    | `Err Protocol.Timeout -> (Protocol.code_name Protocol.Timeout, Rolling.Timeout)
    | `Err code -> (Protocol.code_name code, Rolling.Error)
  in
  let dur_ns = Clock.now_ns () - t0_ns in
  if roll = Rolling.Timeout then Scope.incr t.c_timeouts;
  observe_window t ~name ~dur_ns ~outcome:roll;
  answer ();
  (outcome_name, dur_ns)

(* A compute request from its handler on, run under its [ctx], the same
   for a worker and a reader's inline hit: the [serve.handle] span holds
   the handler, the count and the answer; the access line, any flight
   dump and [serve.handle.seconds] follow. Only a worker also feeds the
   queue-wait histogram and the queue and in-flight gauges. *)
let serve_compute t conn (env : Protocol.envelope) ~request ~t0_ns handler =
  let name = Protocol.request_name env.Protocol.req in
  let id = env.Protocol.id in
  let deadline_s =
    match env.Protocol.deadline_s with
    | Some _ as d -> d
    | None -> t.config.default_deadline_s
  in
  let cancel = Cancel.of_deadline_s deadline_s in
  let outcome, dur_ns =
    Trace.with_span ~cat:"serve" ~args:[ ("type", name) ] "serve.handle" (fun () ->
        count_then_answer t ~name ~t0_ns
          (run_handler t conn ~id ~name ~deadline_s (fun () -> handler ~cancel)))
  in
  (* the rest runs after the serve.handle span closed, so a flight dump
     triggered here already holds the request's own spans *)
  access_line t ~id ~name ~outcome ~dur_ns ~request ?trace_id:env.Protocol.trace_id ();
  let slow =
    match t.config.slow_threshold_s with
    | Some s -> float_of_int dur_ns /. 1e9 >= s
    | None -> false
  in
  if outcome <> "ok" then flight_dump t ~name ~outcome
  else if slow then flight_dump t ~name ~outcome:"slow";
  Metrics.Histogram.observe t.m_handle (Clock.ns_to_s (Clock.now_ns () - t0_ns))

let execute t (job : job) =
  let env = job.env in
  let request = request_context env in
  Metrics.Request.with_ request @@ fun () ->
  serve_compute t job.jconn env ~request ~t0_ns:(Clock.now_ns ()) (fun ~cancel ->
      handle_compute t ~cancel env.Protocol.req)

let worker_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping and drained *)
      Mutex.unlock t.qlock;
      running := false
    end
    else begin
      let job = Queue.pop t.queue in
      t.qsize <- t.qsize - 1;
      Mutex.unlock t.qlock;
      Metrics.Gauge.add t.m_queue_depth (-1.0);
      Metrics.Histogram.observe t.m_queue_wait (now () -. job.enqueued_at);
      Metrics.Gauge.add t.m_inflight 1.0;
      execute t job;
      Metrics.Gauge.add t.m_inflight (-1.0);
      Atomic.decr job.jconn.inflight;
      Atomic.decr t.inflight_total;
      maybe_close t job.jconn
    end
  done

(* --- connection readers ------------------------------------------------- *)

let request_stop t = Atomic.set t.stopping true

(* A dc_op whose circuit is memoized and whose solution is memory
   resident is answered on its reader thread: one rebind and one cache
   lookup, no queue. False for anything else — a memo or cache miss, an
   out-of-range state, a stopping daemon — which admission then takes
   like any compute request. *)
let inline_dc_op t conn env ~expr ~state ~vdd =
  let t0_ns = Clock.now_ns () in
  match memo_find t (memo_key ~expr ~vdd) with
  | Some c when state < 1 lsl Tt.nvars c.tt && not (Atomic.get t.stopping) -> (
    let request = request_context env in
    Metrics.Request.with_ request @@ fun () ->
    match dc_op_answer c ~expr ~state ~solve:(Engine.resident_dc_op t.engine) with
    | None -> false
    | Some answer ->
      serve_compute t conn env ~request ~t0_ns (fun ~cancel:_ -> answer ());
      true)
  | _ -> false

(* A frame that holds no request — one too long, one with a NUL byte,
   or one that does not parse: counted, answered and logged as one
   malformed request. *)
let malformed t conn ~id code msg =
  Scope.incr t.c_requests;
  Scope.incr t.c_malformed;
  respond_error t conn ~id code msg;
  access_line t ~id ~name:"malformed" ~outcome:(Protocol.code_name code) ~dur_ns:0 ()

let handle_frame t conn line =
  let parsed =
    Trace.with_span ~cat:"serve" "serve.parse" (fun () -> Protocol.parse_request line)
  in
  match parsed with
  | Error (id, code, msg) -> malformed t conn ~id code msg
  | Ok env -> (
    Scope.incr t.c_requests;
    let id = env.Protocol.id in
    let name = Protocol.request_name env.Protocol.req in
    (* control requests answer inline from the reader thread; they get
       the same windowed accounting and access-log line as queued work *)
    let inline result_f =
      let t0_ns = Clock.now_ns () in
      let result = result_f () in
      let outcome, dur_ns =
        count_then_answer t ~name ~t0_ns (`Ok, fun () -> respond_ok t conn ~id result)
      in
      access_line t ~id ~name ~outcome ~dur_ns ?trace_id:env.Protocol.trace_id ()
    in
    match env.Protocol.req with
    | Protocol.Ping -> inline (fun () -> Json.Obj [ ("pong", Json.Bool true) ])
    | Protocol.Stats -> inline (fun () -> stats_json t)
    | Protocol.Metrics_text ->
      inline (fun () ->
          Json.Obj
            [
              ("content_type", Json.String "text/plain; version=0.0.4");
              ("text", Json.String (metrics_text t));
            ])
    | Protocol.Shutdown ->
      log t "conn %d: shutdown requested" conn.cid;
      inline (fun () -> Json.Obj [ ("stopping", Json.Bool true) ]);
      request_stop t
    (* the guard answers a hot dc_op; a false one falls through to admission *)
    | Protocol.Dc_op { expr; state; vdd } when inline_dc_op t conn env ~expr ~state ~vdd -> ()
    | _ -> (
      match admit t conn env with
      | Ok () -> ()
      | Error (code, msg) ->
        respond_error t conn ~id code msg;
        access_line t ~id ~name ~outcome:(Protocol.code_name code) ~dur_ns:0 ()))

let reader_loop t conn =
  let r = Framing.reader ~max_frame:t.config.max_frame conn.fd in
  let live = ref true in
  while !live do
    match Framing.read_frame r with
    | Framing.Eof -> live := false
    | Framing.Too_long n ->
      malformed t conn ~id:None Protocol.Frame_too_long
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n t.config.max_frame)
    | Framing.Nul -> malformed t conn ~id:None Protocol.Invalid_frame "frame contains a NUL byte"
    | Framing.Frame line -> handle_frame t conn line
  done;
  Mutex.lock conn.write_lock;
  conn.dead <- true;
  Mutex.unlock conn.write_lock;
  maybe_close t conn;
  log t "conn %d: closed" conn.cid

(* --- listeners ---------------------------------------------------------- *)

let accept_loop t lfd =
  while not (Atomic.get t.stopping) do
    match Unix.select [ lfd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept lfd with
      | exception Unix.Unix_error _ -> ()  (* racing teardown, or transient *)
      | fd, _addr ->
        let cid = Atomic.fetch_and_add t.next_cid 1 in
        let conn =
          {
            cid;
            fd;
            write_lock = Mutex.create ();
            inflight = Atomic.make 0;
            dead = false;
            fd_closed = false;
          }
        in
        Scope.incr t.c_conns_total;
        let th = Thread.create (fun () -> reader_loop t conn) () in
        Mutex.lock t.conns_lock;
        Hashtbl.replace t.conns cid (conn, th);
        Mutex.unlock t.conns_lock;
        log t "conn %d: accepted" cid)
  done

let start t =
  if t.config.socket_path = None && t.config.tcp_port = None then
    invalid_arg "Server.start: config names no listener (socket_path or tcp_port)";
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  t.started_at <- now ();
  (match t.config.socket_path with
  | None -> ()
  | Some path ->
    (* a stale socket file from a dead daemon blocks bind; clear it *)
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    t.listeners <- (fd, "unix:" ^ path) :: t.listeners);
  (match t.config.tcp_port with
  | None -> ()
  | Some port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.tcp_host, port));
    Unix.listen fd 64;
    (match Unix.getsockname fd with
    | Unix.ADDR_INET (_, bound) -> t.bound_port <- Some bound
    | _ -> ());
    t.listeners <-
      (fd, Printf.sprintf "tcp:%s:%d" t.config.tcp_host (Option.value t.bound_port ~default:port))
      :: t.listeners);
  t.accept_threads <-
    List.map (fun (fd, _) -> Thread.create (fun () -> accept_loop t fd) ()) t.listeners;
  t.worker_threads <-
    List.init t.config.workers (fun _ -> Thread.create (fun () -> worker_loop t) ());
  List.iter (fun (_, desc) -> log t "listening on %s" desc) t.listeners;
  log t "engine: %d domain(s), %d workers, queue %d, quota %d%s" (Engine.domains t.engine)
    t.config.workers t.config.queue_capacity t.config.max_inflight_per_client
    (match Engine.store_dir t.engine with
    | None -> ""
    | Some d -> Printf.sprintf ", store %s" d)

let teardown t =
  Mutex.lock t.lifecycle;
  let first = not t.torn_down in
  t.torn_down <- true;
  Mutex.unlock t.lifecycle;
  if first then begin
    (* 1. accept threads observe the flag within their select timeout *)
    List.iter Thread.join t.accept_threads;
    List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    (match t.config.socket_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    (* 2. drain: admission already refuses, so the queue only shrinks *)
    let deadline = now () +. t.config.drain_deadline_s in
    let pending () = queue_depth t + Atomic.get t.inflight_total in
    while pending () > 0 && now () < deadline do
      Thread.delay 0.01
    done;
    if pending () > 0 then log t "drain deadline expired with %d job(s) pending" (pending ());
    (* 3. workers exit once the queue is empty and the flag is up *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    List.iter Thread.join t.worker_threads;
    (* 4. wake blocked readers and reap connections *)
    Mutex.lock t.conns_lock;
    let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    Mutex.unlock t.conns_lock;
    List.iter
      (fun (conn, _) ->
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      remaining;
    List.iter (fun (_, th) -> Thread.join th) remaining;
    List.iter
      (fun (conn, _) ->
        Mutex.lock conn.write_lock;
        let close_now = not conn.fd_closed in
        conn.fd_closed <- true;
        conn.dead <- true;
        Mutex.unlock conn.write_lock;
        if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ())
      remaining;
    Option.iter Spool.close_log t.access;
    log t "stopped"
  end

let wait t =
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05
  done;
  teardown t

let stop t =
  request_stop t;
  wait t

let run t =
  start t;
  (match Sys.os_type with
  | "Unix" ->
    (* handlers only flip an atomic; [wait] does the teardown from a
       normal thread context *)
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop t));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t))
  | _ -> ());
  wait t
