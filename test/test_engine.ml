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
  (* FIFO: the oldest entry went *)
  Alcotest.(check (option int)) "oldest evicted" None (Cache.find c ~key:"a");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Cache.find c ~key:"c")

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
    conv_trace;
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
      ("conv_trace", { d with conv_trace = not conv_trace });
    ]

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

let test_reset_telemetry_keeps_cache () =
  (* reset_telemetry zeroes the counters but must not evict cached
     results: a key that hit before the reset still hits after it *)
  let e = Engine.create ~domains:1 () in
  let netlist = build_netlist Lattice_synthesis.Library.maj3_2x3 in
  (match Engine.dc_op e netlist with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "warm-up solve failed");
  ignore (Engine.dc_op e netlist);
  let t = Engine.telemetry e in
  Alcotest.(check int) "warm-up: one hit" 1 t.Engine.cache.Cache.hits;
  Engine.reset_telemetry e;
  let t0 = Engine.telemetry e in
  Alcotest.(check int) "hits zeroed" 0 t0.Engine.cache.Cache.hits;
  Alcotest.(check int) "misses zeroed" 0 t0.Engine.cache.Cache.misses;
  Alcotest.(check int) "dc_solves zeroed" 0 t0.Engine.dc_solves;
  (match Engine.dc_op e netlist with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "post-reset solve failed");
  let t1 = Engine.telemetry e in
  Alcotest.(check int) "entry survived the reset: hit, not miss" 1
    t1.Engine.cache.Cache.hits;
  Alcotest.(check int) "no new miss" 0 t1.Engine.cache.Cache.misses;
  Alcotest.(check int) "no re-solve" 0 t1.Engine.dc_solves

let test_engine_map_and_phases () =
  let e = Engine.create ~domains:2 () in
  let out = Engine.map e ~phase:"square" ~n:10 (fun i -> i * i) in
  Alcotest.(check (array int)) "map merges by index" (Array.init 10 (fun i -> i * i)) out;
  let t = Engine.telemetry e in
  Alcotest.(check int) "jobs counted" 10 t.Engine.jobs;
  Alcotest.(check bool) "phase recorded" true (List.mem_assoc "square" t.Engine.phases);
  Alcotest.(check bool) "summary renders" true
    (String.length (Engine.summary e) > 20);
  Engine.reset_telemetry e;
  let t = Engine.telemetry e in
  Alcotest.(check int) "jobs reset" 0 t.Engine.jobs;
  Alcotest.(check (list (pair string (float 0.0)))) "phases reset" [] t.Engine.phases

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
        ] );
      ( "keys",
        [ Alcotest.test_case "content-key soundness" `Quick test_key_soundness ] );
      ( "engine",
        [
          Alcotest.test_case "dc_op memoization" `Quick test_dc_op_memoized;
          Alcotest.test_case "reset_telemetry keeps the cache warm" `Quick
            test_reset_telemetry_keeps_cache;
          Alcotest.test_case "map + phase telemetry" `Quick test_engine_map_and_phases;
          Alcotest.test_case "FTL_DOMAINS default" `Quick test_default_engine_env;
          Alcotest.test_case "seed-split rng streams" `Quick test_sample_rng_streams;
        ] );
    ]
