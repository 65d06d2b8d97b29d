(* Benchmark harness.

   Running this executable first regenerates every table and figure of the
   paper (printing paper-vs-measured rows), then times the computational
   kernels behind each experiment with Bechamel. One Test.make per
   table/figure, plus ablation benches for the design choices called out in
   DESIGN.md. *)

open Bechamel

let experiments () =
  print_endline "==================================================================";
  print_endline " Reproduction of every table and figure (paper vs measured)";
  print_endline "==================================================================";
  print_newline ();
  Lattice_experiments.All.print_all ()

(* --- kernels, one per experiment ------------------------------------- *)

let bench_table1 =
  Test.make ~name:"TableI: count products 6x6, ZDD (1668 paths)" (Staged.stage (fun () ->
      ignore (Lattice_core.Paths.count_irredundant_zdd ~rows:6 ~cols:6)))

let bench_table1_large =
  Test.make ~name:"TableI: count products 7x7, ZDD (26317 paths)" (Staged.stage (fun () ->
      ignore (Lattice_core.Paths.count_irredundant_zdd ~rows:7 ~cols:7)))

let bench_lattice_function =
  Test.make ~name:"Fig2c: extract 3x3 lattice function" (Staged.stage (fun () ->
      ignore (Lattice_core.Lattice_function.of_generic ~rows:3 ~cols:3)))

let bench_synthesis =
  Test.make ~name:"Fig3: Altun-Riedel synthesis of XOR3" (Staged.stage (fun () ->
      ignore (Lattice_synthesis.Altun_riedel.synthesize Lattice_synthesis.Library.xor3)))

let bench_validate =
  Test.make ~name:"Fig3: validate XOR3 3x3 lattice" (Staged.stage (fun () ->
      ignore (Lattice_synthesis.Validate.realizes Lattice_synthesis.Library.xor3_3x3
          Lattice_synthesis.Library.xor3)))

let square_hfo2 =
  Lattice_device.Presets.find ~shape:Lattice_device.Geometry.Square
    ~dielectric:Lattice_device.Material.HfO2

let bench_iv =
  Test.make ~name:"Fig5-7: standard I-V sweep set (51 pts x 3)" (Staged.stage (fun () ->
      ignore (Lattice_device.Sweep.standard square_hfo2.Lattice_device.Presets.model)))

let bench_field =
  Test.make ~name:"Fig8: 2-D field solve, square device, 48x48" (Staged.stage (fun () ->
      ignore
        (Lattice_device.Field2d.solve square_hfo2 ~case:Lattice_device.Op_case.dsss ~vgs:5.0
           ~vds:5.0)))

let bench_fit =
  Test.make ~name:"Fig10: Levenberg-Marquardt extraction" (Staged.stage (fun () ->
      ignore (Lattice_fit.Fit.extract square_hfo2.Lattice_device.Presets.model)))

let bench_transient =
  Test.make ~name:"Fig11: XOR3 transient (100 ns, h = 1 ns)" (Staged.stage (fun () ->
      let lc =
        Lattice_spice.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
          ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
      in
      ignore
        (Lattice_spice.Transient.run lc.Lattice_spice.Lattice_circuit.netlist ~h:1e-9
           ~t_stop:100e-9 ~record:[ "out" ] ())))

let bench_series_dc =
  Test.make ~name:"Fig12a: DC solve of 21-switch chain" (Staged.stage (fun () ->
      ignore (Lattice_spice.Series_chain.current ~n:21 ~v_top:1.2 ())))

let bench_series_bisect =
  Test.make ~name:"Fig12b: bisection for 5.5 uA, N = 11" (Staged.stage (fun () ->
      ignore (Lattice_spice.Series_chain.voltage_for_current ~n:11 ~i_target:5.5e-6 ())))

(* --- ablation benches (DESIGN.md) ------------------------------------ *)

let on_pattern_43 = Array.make 12 true

let bench_connectivity_bfs =
  Test.make ~name:"ablation: connectivity BFS 4x3" (Staged.stage (fun () ->
      ignore (Lattice_core.Connectivity.connected_bfs ~rows:4 ~cols:3 on_pattern_43)))

let bench_connectivity_uf =
  Test.make ~name:"ablation: connectivity union-find 4x3" (Staged.stage (fun () ->
      ignore (Lattice_core.Connectivity.connected_union_find ~rows:4 ~cols:3 on_pattern_43)))

let bench_paths_pruned =
  Test.make ~name:"ablation: pruned path DFS 4x4" (Staged.stage (fun () ->
      ignore (Lattice_core.Paths.count_irredundant_enum ~rows:4 ~cols:4)))

let bench_paths_brute =
  Test.make ~name:"ablation: brute-force minimal sets 4x4" (Staged.stage (fun () ->
      ignore (Lattice_core.Paths.irredundant_sets_brute ~rows:4 ~cols:4)))

let transient_once integrator =
  let lc =
    Lattice_spice.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
  in
  let options = { Lattice_spice.Transient.default_options with integrator } in
  ignore
    (Lattice_spice.Transient.run ~options lc.Lattice_spice.Lattice_circuit.netlist ~h:1e-9
       ~t_stop:50e-9 ~record:[ "out" ] ())

let transient_with_types types =
  let config = { Lattice_spice.Lattice_circuit.default_config with types } in
  let lc =
    Lattice_spice.Lattice_circuit.build ~config Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
  in
  ignore
    (Lattice_spice.Transient.run lc.Lattice_spice.Lattice_circuit.netlist ~h:1e-9 ~t_stop:50e-9
       ~record:[ "out" ] ())

let bench_model_level1 =
  Test.make ~name:"ablation: XOR3 transient, level-1 switches" (Staged.stage (fun () ->
      transient_with_types Lattice_spice.Fts.default_types))

let bench_model_level3 =
  Test.make ~name:"ablation: XOR3 transient, level-3 switches" (Staged.stage (fun () ->
      transient_with_types (Lattice_spice.Fts.level3_types ())))

let bench_complementary_dc =
  Test.make ~name:"ExtVIa: complementary XOR3 DC op point" (Staged.stage (fun () ->
      let lc =
        Lattice_spice.Lattice_circuit.build_complementary
          ~pull_up:Lattice_synthesis.Library.xnor3_3x3
          ~pull_down:Lattice_synthesis.Library.xor3_3x3
          ~stimulus:(fun _ -> Lattice_spice.Source.Dc 1.2)
          ()
      in
      ignore (Lattice_spice.Dcop.solve lc.Lattice_spice.Lattice_circuit.netlist)))

let bench_optimizer =
  Test.make ~name:"ExtVIa: optimizer (analytic) on majority-3" (Staged.stage (fun () ->
      ignore (Lattice_flow.Optimizer.optimize (Lattice_boolfn.Truthtable.majority_n 3))))

let bench_faults =
  Test.make ~name:"Ext: fault campaign on XOR3 3x3" (Staged.stage (fun () ->
      ignore (Lattice_synthesis.Faults.analyze Lattice_synthesis.Library.xor3_3x3)))

let bench_ac =
  Test.make ~name:"ExtVIa: AC sweep of XOR3 output pole (61 pts)" (Staged.stage (fun () ->
      let lc =
        Lattice_spice.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
          ~stimulus:(fun _ -> Lattice_spice.Source.Dc 0.0)
      in
      ignore
        (Lattice_spice.Ac.sweep lc.Lattice_spice.Lattice_circuit.netlist ~source:"VDD"
           ~output:"out" ~f_start:1e4 ~f_stop:1e10 ~points_per_decade:10)))

let bench_monte_carlo =
  Test.make ~name:"Ext: Monte-Carlo die (8 DC solves, perturbed)" (Staged.stage (fun () ->
      ignore
        (Lattice_flow.Monte_carlo.run Lattice_synthesis.Library.maj3_2x3
           ~target:(Lattice_boolfn.Truthtable.majority_n 3) ~samples:1)))

let bench_compose =
  Test.make ~name:"Ext: compositional synthesis of a 4-var expression" (Staged.stage (fun () ->
      let e, _ = Lattice_boolfn.Expr.parse "(a ^ b) (c + d') + a' c" in
      ignore (Lattice_core.Compose.of_expr e)))

let bench_defect_sample =
  Test.make ~name:"Ext: defect sample (stuck-open maj3, 8 DC solves)" (Staged.stage (fun () ->
      ignore
        (Lattice_flow.Fault_campaign.simulate Lattice_synthesis.Library.maj3_2x3
           ~target:(Lattice_boolfn.Truthtable.majority_n 3) ~test_set:[]
           [ { Lattice_spice.Defects.row = 0; col = 0; kind = Lattice_spice.Defects.Stuck_open } ])))

let bench_defect_campaign =
  Test.make ~name:"Ext: stuck-defect campaign on maj3 2x3 (12 samples)" (Staged.stage (fun () ->
      let options =
        { Lattice_flow.Fault_campaign.default_options with
          Lattice_flow.Fault_campaign.classes =
            [ Lattice_spice.Defects.Opens; Lattice_spice.Defects.Shorts ];
          attempt_repair = false }
      in
      ignore
        (Lattice_flow.Fault_campaign.run ~options Lattice_synthesis.Library.maj3_2x3
           ~target:(Lattice_boolfn.Truthtable.majority_n 3))))

let bench_integrator_be =
  Test.make ~name:"ablation: transient backward Euler" (Staged.stage (fun () ->
      transient_once Lattice_spice.Transient.Backward_euler))

let bench_integrator_trap =
  Test.make ~name:"ablation: transient trapezoidal" (Staged.stage (fun () ->
      transient_once Lattice_spice.Transient.Trapezoidal))

(* --- stamp-plan transient on a larger lattice (DESIGN.md, "Sparse MNA
   engine"); the 3x3 XOR3 case is the Fig11 kernel above ------------------ *)

let lattice_6x6_grid =
  let entries =
    Array.init 36 (fun i ->
        let r = i / 6 and c = i mod 6 in
        Lattice_core.Grid.Lit ((r + c) mod 3, (r * c) mod 2 = 0))
  in
  Lattice_core.Grid.create 6 6 entries

let bench_transient_6x6 =
  Test.make ~name:"6x6 lattice transient 50ns (87 unknowns)" (Staged.stage (fun () ->
      let lc =
        Lattice_spice.Lattice_circuit.build lattice_6x6_grid
          ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
      in
      ignore
        (Lattice_spice.Transient.run lc.Lattice_spice.Lattice_circuit.netlist ~h:1e-9
           ~t_stop:50e-9 ~record:[ "out" ] ())))

(* --- parallel batch engine (DESIGN.md, "Parallel batch engine") ------- *)

let mc_bench_target = Lattice_boolfn.Truthtable.majority_n 3

(* The "serial" kernels pass no engine, so the flow runs on a fresh
   1-domain engine ([Engine.or_fresh]); the names stay so the
   BENCH_spice.json fields keep their meaning across history. *)
let mc_100_serial () =
  ignore
    (Lattice_flow.Monte_carlo.run Lattice_synthesis.Library.maj3_2x3 ~target:mc_bench_target
       ~samples:100)

let mc_100_domains domains () =
  (* fresh engine per run: cold cache, so the bench times real solves *)
  let engine = Lattice_engine.Engine.create ~domains () in
  ignore
    (Lattice_flow.Monte_carlo.run ~engine Lattice_synthesis.Library.maj3_2x3
       ~target:mc_bench_target ~samples:100)

let campaign_bench_options =
  { Lattice_flow.Fault_campaign.default_options with
    Lattice_flow.Fault_campaign.classes =
      [ Lattice_spice.Defects.Opens; Lattice_spice.Defects.Shorts ];
    attempt_repair = false }

let campaign_12_serial () =
  ignore
    (Lattice_flow.Fault_campaign.run ~options:campaign_bench_options
       Lattice_synthesis.Library.maj3_2x3 ~target:mc_bench_target)

let campaign_12_domains domains () =
  let engine = Lattice_engine.Engine.create ~domains () in
  ignore
    (Lattice_flow.Fault_campaign.run ~engine ~options:campaign_bench_options
       Lattice_synthesis.Library.maj3_2x3 ~target:mc_bench_target)

let engine_mc_serial_name = "engine: Monte-Carlo 100 samples, serial"
let engine_mc_2_name = "engine: Monte-Carlo 100 samples, 2 domains"
let engine_mc_4_name = "engine: Monte-Carlo 100 samples, 4 domains"
let engine_campaign_serial_name = "engine: campaign 12 samples, serial"
let engine_campaign_2_name = "engine: campaign 12 samples, 2 domains"
let engine_campaign_4_name = "engine: campaign 12 samples, 4 domains"

let bench_engine_mc_serial =
  Test.make ~name:engine_mc_serial_name (Staged.stage mc_100_serial)

let bench_engine_mc_2 = Test.make ~name:engine_mc_2_name (Staged.stage (mc_100_domains 2))
let bench_engine_mc_4 = Test.make ~name:engine_mc_4_name (Staged.stage (mc_100_domains 4))

let bench_engine_campaign_serial =
  Test.make ~name:engine_campaign_serial_name (Staged.stage campaign_12_serial)

let bench_engine_campaign_2 =
  Test.make ~name:engine_campaign_2_name (Staged.stage (campaign_12_domains 2))

let bench_engine_campaign_4 =
  Test.make ~name:engine_campaign_4_name (Staged.stage (campaign_12_domains 4))

let all_tests =
  [
    bench_table1;
    bench_table1_large;
    bench_lattice_function;
    bench_synthesis;
    bench_validate;
    bench_iv;
    bench_field;
    bench_fit;
    bench_transient;
    bench_series_dc;
    bench_series_bisect;
    bench_connectivity_bfs;
    bench_connectivity_uf;
    bench_paths_pruned;
    bench_paths_brute;
    bench_integrator_be;
    bench_integrator_trap;
    bench_transient_6x6;
    bench_model_level1;
    bench_model_level3;
    bench_complementary_dc;
    bench_optimizer;
    bench_faults;
    bench_ac;
    bench_monte_carlo;
    bench_compose;
    bench_defect_sample;
    bench_defect_campaign;
    bench_engine_mc_serial;
    bench_engine_mc_2;
    bench_engine_mc_4;
    bench_engine_campaign_serial;
    bench_engine_campaign_2;
    bench_engine_campaign_4;
  ]

(* Gc-based proof that the Newton inner loop allocates nothing
   once the plan's LU is warm (DESIGN.md, "Sparse MNA engine"). *)
let allocation_check () =
  print_endline "==================================================================";
  print_endline " Newton inner-loop allocation check (Gc.minor_words delta)";
  print_endline "==================================================================";
  let lc =
    Lattice_spice.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(fun _ -> Lattice_spice.Source.Dc 1.2)
  in
  let netlist = lc.Lattice_spice.Lattice_circuit.netlist in
  let options = Lattice_spice.Dcop.default_options in
  let plan = Lattice_spice.Stamp_plan.compile netlist in
  let x0 = Lattice_spice.Dcop.solve ~plan netlist in
  let dst = Array.make (Array.length x0) 0.0 in
  let solve () =
    ignore
      (Lattice_spice.Dcop.newton_into ~plan netlist ~options ~x0 ~dst ~time:0.0
         ~gmin:options.Lattice_spice.Dcop.gmin_final ~source_scale:1.0 ~caps:None)
  in
  (* warm-up: first factorization runs the symbolic analysis *)
  solve ();
  (* park the flight ring: it records a span per solve (the measured,
     capped flight_recorder_overhead_ratio cost) — this check is about
     the solver's own inner loop staying allocation-free *)
  let ring_was = Lattice_obs.Ring.on () in
  Lattice_obs.Ring.set_enabled false;
  let runs = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    solve ()
  done;
  let per_solve = (Gc.minor_words () -. w0) /. float_of_int runs in
  Lattice_obs.Ring.set_enabled ring_was;
  Printf.printf "  %.1f minor words per warm Newton solve (%d unknowns) -> %s\n%!" per_solve
    (Lattice_spice.Netlist.unknowns netlist)
    (if per_solve < 16.0 then "allocation-free" else "ALLOCATING");
  per_solve < 16.0

(* Warm-cache demonstration: the same engine runs the same campaign twice;
   the second pass must be (nearly) all cache hits. Returns the hit rate
   of the second pass, computed from telemetry deltas. *)
let cache_rerun_report () =
  print_endline "==================================================================";
  print_endline " Content-addressed cache: campaign re-run on a warm engine";
  print_endline "==================================================================";
  let engine = Lattice_engine.Engine.create ~domains:2 () in
  let run () =
    ignore
      (Lattice_flow.Fault_campaign.run ~engine ~options:campaign_bench_options
         Lattice_synthesis.Library.maj3_2x3 ~target:mc_bench_target)
  in
  let module E = Lattice_engine.Engine in
  let module C = Lattice_engine.Cache in
  run ();
  let t1 = E.telemetry engine in
  run ();
  let t2 = E.telemetry engine in
  let hits = t2.E.cache.C.hits - t1.E.cache.C.hits in
  let lookups =
    t2.E.cache.C.hits + t2.E.cache.C.misses - (t1.E.cache.C.hits + t1.E.cache.C.misses)
  in
  let rate = if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups in
  Printf.printf "  second pass: %d/%d lookups hit (%.1f%%), %d new solves\n"
    hits lookups (100.0 *. rate)
    (t2.E.dc_solves - t1.E.dc_solves);
  Printf.printf "  %s\n%!" (E.summary engine);
  rate

(* Crash-safe persistent cache: two engines that share nothing but an
   on-disk store directory run the same campaign. The second engine's
   in-memory cache starts cold, so every hit it records is served by the
   persistent tier — the same cross-process replay the CI smoke job
   exercises with two sequential [ftl] invocations. Returns the second
   engine's hit rate (the acceptance target is 1.0) after checking the
   two result sets are bit-identical. *)
let persistent_cache_report () =
  print_endline "==================================================================";
  print_endline " Persistent store: cold-engine campaign over a warm cache dir";
  print_endline "==================================================================";
  let module E = Lattice_engine.Engine in
  let module C = Lattice_engine.Cache in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftl-bench-store-%d" (Unix.getpid ()))
  in
  let run () =
    let engine = E.create ~domains:2 ~store_dir:dir () in
    let r =
      Lattice_flow.Fault_campaign.run ~engine ~options:campaign_bench_options
        Lattice_synthesis.Library.maj3_2x3 ~target:mc_bench_target
    in
    (engine, r)
  in
  let _cold, r1 = run () in
  let warm, r2 = run () in
  let t = E.telemetry warm in
  let lookups = t.E.cache.C.hits + t.E.cache.C.misses in
  let rate = if lookups = 0 then 0.0 else float_of_int t.E.cache.C.hits /. float_of_int lookups in
  let identical = compare r1 r2 = 0 in
  Printf.printf "  cold engine over warm store: %d/%d lookups hit (%.1f%%); results %s\n"
    t.E.cache.C.hits lookups (100.0 *. rate)
    (if identical then "bit-identical to the cold run" else "DIVERGED from the cold run");
  Printf.printf "  %s\n%!" (E.summary warm);
  (* best-effort cleanup of the temp store *)
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  (try rm_rf dir with Sys_error _ -> ());
  if identical then rate else 0.0

(* Service layer: a live in-process daemon over a Unix socket. Two
   numbers land in the JSON: the warm/cold latency ratio of a dc_op
   batch (the second pass answers from the engine cache, so the ratio
   quantifies what the long-lived daemon buys over per-request
   processes) and the ping round-trip throughput (the protocol +
   framing + dispatch overhead floor, with no solver work inside). *)
let serve_report ~smoke =
  print_endline "==================================================================";
  print_endline " Service layer: daemon round-trip latency and throughput";
  print_endline "==================================================================";
  let module S = Lattice_serve.Server in
  let module C = Lattice_serve.Client in
  let module J = Lattice_serve.Json in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftl-bench-serve-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  let path = Filename.concat dir "daemon.sock" in
  let config =
    { S.default_config with S.socket_path = Some path; domains = Some 2; workers = 2 }
  in
  let t = S.create ~config () in
  S.start t;
  Fun.protect
    ~finally:(fun () ->
      S.stop t;
      try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let c = C.connect (C.Unix_socket path) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let states = if smoke then 4 else 8 in
  let requests =
    List.concat_map
      (fun expr ->
        List.init states (fun state ->
            J.to_string
              (J.Obj
                 [
                   ("type", J.String "dc_op");
                   ("expr", J.String expr);
                   ("state", J.Int state);
                 ])))
      [ "a&b|c"; "a^b^c" ]
  in
  let time_pass () =
    let t0 = Unix.gettimeofday () in
    List.iter (fun line -> ignore (C.call_raw c line)) requests;
    Unix.gettimeofday () -. t0
  in
  let cold = time_pass () in
  let warm = time_pass () in
  let ratio = if cold > 0.0 then warm /. cold else 1.0 in
  Printf.printf "  dc_op batch (%d requests): cold %.1f ms, warm %.1f ms (ratio %.3f)\n"
    (List.length requests) (1e3 *. cold) (1e3 *. warm) ratio;
  let pings = if smoke then 500 else 3000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to pings do
    ignore (C.ping c)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let rps = if elapsed > 0.0 then float_of_int pings /. elapsed else 0.0 in
  Printf.printf "  ping round-trips: %d in %.2f s (%.0f req/s)\n%!" pings elapsed rps;
  [
    ("serve_warm_over_cold_latency_ratio", ratio);
    ("serve_requests_per_second", rps);
  ]

(* Shared A/A kernel for the observability overhead measurements: one
   XOR3 transient is ~1 ms, so time blocks of 20 and take the min of N
   blocks — single-run minima are too noisy for a few-percent
   comparison. *)
let obs_kernel () =
  let lc =
    Lattice_spice.Lattice_circuit.build Lattice_synthesis.Library.xor3_3x3
      ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time:50e-9)
  in
  ignore
    (Lattice_spice.Transient.run lc.Lattice_spice.Lattice_circuit.netlist ~h:1e-9
       ~t_stop:50e-9 ~record:[ "out" ] ())

let time_obs_kernel n =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Lattice_obs.Clock.now_ns () in
    for _ = 1 to 20 do
      obs_kernel ()
    done;
    let dt = float_of_int (Lattice_obs.Clock.now_ns () - t0) in
    if dt < !best then best := dt
  done;
  !best

(* Flight recorder: the ring records every completed span even while
   tracing is off, so its cost — one fetch-and-add plus one array store
   per span — must vanish into the noise floor (<= 1.05x, ISSUE 10).
   Min-of-N with the ring on over min-of-N with it off. *)
let flight_report () =
  print_endline "==================================================================";
  print_endline " Flight recorder: ring-enabled vs ring-disabled overhead";
  print_endline "==================================================================";
  let was = Lattice_obs.Ring.on () in
  obs_kernel ();
  (* warm-up *)
  Lattice_obs.Ring.set_enabled false;
  let off = time_obs_kernel 7 in
  Lattice_obs.Ring.set_enabled true;
  let on_ = time_obs_kernel 7 in
  Lattice_obs.Ring.set_enabled was;
  let ratio = on_ /. off in
  Printf.printf "  ring-on/ring-off A/A ratio: %.4f (%s)\n%!" ratio
    (if ratio <= 1.05 then "within the 1.05x target"
     else "above the 1.05x target on this host");
  [ ("flight_recorder_overhead_ratio", ratio) ]

(* Observability check: the tracing hooks compiled into the hot loops must
   be invisible while disabled (< 2%, DESIGN.md "Observability layer").
   Two identical min-of-N measurements of the XOR3 transient with obs off
   bound the noise floor; their ratio lands in the JSON. A third, fully
   traced, run feeds the histogram percentiles reported alongside. *)
let obs_report () =
  print_endline "==================================================================";
  print_endline " Observability: disabled-mode overhead and traced-mode percentiles";
  print_endline "==================================================================";
  let kernel = obs_kernel in
  let time_kernel = time_obs_kernel in
  kernel ();
  (* warm-up; the flight ring defaults on and would pollute a
     trace-disabled baseline, so it is off for both arms of the A/A *)
  let was_ring = Lattice_obs.Ring.on () in
  Lattice_obs.Ring.set_enabled false;
  let a = time_kernel 7 in
  let b = time_kernel 7 in
  Lattice_obs.Ring.set_enabled was_ring;
  let ratio = b /. a in
  Printf.printf "  disabled-obs A/A ratio: %.4f (%s)\n%!" ratio
    (if Float.abs (ratio -. 1.0) < 0.02 then "within the 2% noise target"
     else "above the 2% noise target on this host");
  Lattice_obs.Trace.set_enabled true;
  Lattice_obs.Metrics.set_enabled true;
  kernel ();
  Lattice_obs.Trace.set_enabled false;
  Lattice_obs.Metrics.set_enabled false;
  let n_events = List.length (Lattice_obs.Trace.events ()) in
  let safe x = if Float.is_finite x then x else 0.0 in
  let pct name p =
    safe (Lattice_obs.Metrics.Histogram.percentile (Lattice_obs.Metrics.histogram name) p)
  in
  let newton_p50 = pct "newton.iterations" 50.0
  and newton_p95 = pct "newton.iterations" 95.0
  and factor_p50_us = 1e6 *. pct "factor.seconds" 50.0
  and factor_p95_us = 1e6 *. pct "factor.seconds" 95.0 in
  Printf.printf
    "  traced run: %d events; newton iters p50 %.3g p95 %.3g; factor p50 %.3g us p95 %.3g us\n%!"
    n_events newton_p50 newton_p95 factor_p50_us factor_p95_us;
  Lattice_obs.Trace.reset ();
  Lattice_obs.Metrics.reset ();
  [
    ("obs_disabled_overhead_ratio", ratio);
    ("obs_newton_iterations_p50", newton_p50);
    ("obs_newton_iterations_p95", newton_p95);
    ("obs_factor_us_p50", factor_p50_us);
    ("obs_factor_us_p95", factor_p95_us);
    ("obs_trace_events", float_of_int n_events);
  ]

(* Asymptotic hot-spot kernels (DESIGN.md, "Geometric multigrid field
   solver" and "ZDD path counting"). These are multi-millisecond-to-
   multi-second kernels, so a min-of-k wall clock beats Bechamel's
   per-run OLS here. [--smoke] trims the size ladder for CI while
   keeping every ratio field present in the JSON. *)

let wall_ms ?(runs = 3) f =
  f ();
  (* warm-up *)
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Lattice_obs.Clock.now_ns () in
    f ();
    let dt = float_of_int (Lattice_obs.Clock.now_ns () - t0) /. 1e6 in
    if dt < !best then best := dt
  done;
  !best

let asymptotics_report ~smoke =
  print_endline "==================================================================";
  print_endline " Asymptotic hot spots: multigrid field solve and ZDD path counting";
  print_endline "==================================================================";
  let module D = Lattice_device in
  let solve_field solver n =
    ignore
      (D.Field2d.solve ~n ~solver square_hfo2 ~case:D.Op_case.dsss ~vgs:5.0 ~vds:5.0)
  in
  let cg_48 = wall_ms (fun () -> solve_field D.Field2d.Cg 48) in
  Printf.printf "  field solve 48x48   CG        %10.2f ms\n%!" cg_48;
  let mg_sizes = if smoke then [ 48; 96 ] else [ 48; 96; 192; 256 ] in
  let mg =
    List.map
      (fun n ->
        let runs = if n >= 192 then 2 else 3 in
        let ms = wall_ms ~runs (fun () -> solve_field D.Field2d.Multigrid n) in
        Printf.printf "  field solve %3dx%-3d multigrid %10.2f ms\n%!" n n ms;
        (n, ms))
      mg_sizes
  in
  let mg_ms n = List.assoc n mg in
  let field_extras =
    (("field_cg_ms_48", cg_48)
     :: List.map (fun (n, ms) -> (Printf.sprintf "field_mg_ms_%d" n, ms)) mg)
    @ [ ("field_cg_over_mg_ratio_48", cg_48 /. mg_ms 48) ]
    @
    (* in smoke mode the largest grid run stands in for 256 so the ratio
       field is always present for the CI gate *)
    let largest = List.fold_left (fun acc (n, _) -> Int.max acc n) 0 mg in
    [ ("field_mg_256_over_cg_48_ratio", mg_ms (if smoke then largest else 256) /. cg_48) ]
  in
  Printf.printf "  CG/MG speedup at 48x48: %.1fx\n%!" (cg_48 /. mg_ms 48);
  (* the enum/ZDD crossover sits at 8x8, so smoke keeps that size *)
  let dims = if smoke then [ 7; 8 ] else [ 7; 8; 9 ] in
  let table1_extras =
    List.concat_map
      (fun d ->
        let runs = if d >= 9 then 1 else if d = 8 then 2 else 3 in
        let enum_ms =
          wall_ms ~runs (fun () -> ignore (Lattice_core.Paths.count_irredundant_enum ~rows:d ~cols:d))
        in
        let zdd_ms =
          (* pin the ZDD backend: count_irredundant auto-selects enum
             below the crossover, which would make this an A/A *)
          wall_ms ~runs:3 (fun () ->
              ignore (Lattice_core.Paths.count_irredundant_zdd ~rows:d ~cols:d))
        in
        Printf.printf "  Table I %dx%d        enum %10.2f ms   ZDD %10.2f ms   (%.1fx)\n%!" d d
          enum_ms zdd_ms (enum_ms /. zdd_ms);
        [
          (Printf.sprintf "table1_enum_ms_%dx%d" d d, enum_ms);
          (Printf.sprintf "table1_zdd_ms_%dx%d" d d, zdd_ms);
          (Printf.sprintf "table1_enum_over_zdd_ratio_%dx%d" d d, enum_ms /. zdd_ms);
        ])
      dims
  in
  field_extras @ table1_extras

(* Serial-vs-parallel ratios of the engine benches, by kernel name. On a
   single-core host these hover around 1.0 (domains timeshare one CPU);
   the JSON reports whatever was measured. *)
let engine_speedups results =
  let ratio base par =
    match (List.assoc_opt base results, List.assoc_opt par results) with
    | Some b, Some p when p > 0.0 -> Some (b /. p)
    | _ -> None
  in
  List.filter_map
    (fun (key, base, par) -> Option.map (fun r -> (key, r)) (ratio base par))
    [
      ("engine_mc_speedup_2_domains", engine_mc_serial_name, engine_mc_2_name);
      ("engine_mc_speedup_4_domains", engine_mc_serial_name, engine_mc_4_name);
      ("engine_campaign_speedup_2_domains", engine_campaign_serial_name, engine_campaign_2_name);
      ("engine_campaign_speedup_4_domains", engine_campaign_serial_name, engine_campaign_4_name);
    ]

let run_benchmarks () =
  print_endline "==================================================================";
  print_endline " Kernel timings (Bechamel, monotonic clock)";
  print_endline "==================================================================";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = ref [] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let name = Test.Elt.name elt in
          let run_results = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock run_results in
          match Analyze.OLS.estimates est with
          | Some [ ns_per_run ] ->
            results := (name, ns_per_run) :: !results;
            let value, unit_ =
              if ns_per_run >= 1e9 then (ns_per_run /. 1e9, "s")
              else if ns_per_run >= 1e6 then (ns_per_run /. 1e6, "ms")
              else if ns_per_run >= 1e3 then (ns_per_run /. 1e3, "us")
              else (ns_per_run, "ns")
            in
            Printf.printf "  %-48s %10.2f %s/run\n%!" name value unit_
          | Some _ | None -> Printf.printf "  %-48s (no estimate)\n%!" name)
        (Test.elements test))
    all_tests;
  List.rev !results

(* Built as a [Lattice_serve.Json.t], so keys are escaped by the same
   codec the daemon uses. JSON has no nan/inf literal: a non-finite
   measurement prints as null. *)
let write_json path ~newton_allocation_free ~extras results =
  let module J = Lattice_serve.Json in
  let number v = if Float.is_finite v then J.Float v else J.Null in
  let numbers kvs = List.map (fun (k, v) -> (k, number v)) kvs in
  let fields =
    (("newton_inner_loop_allocation_free", J.Bool newton_allocation_free) :: numbers extras)
    (* smoke runs skip the Bechamel suite: no kernels key rather than an
       empty object that consumers would mistake for "measured, found none" *)
    @ if results = [] then [] else [ ("kernels_ns_per_run", J.Obj (numbers results)) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.Obj fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d kernels)\n%!" path (List.length results)

let () =
  let json = Array.exists (String.equal "--json") Sys.argv in
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  if not (json || smoke) then experiments ();
  let allocation_free = allocation_check () in
  let asym_extras = asymptotics_report ~smoke in
  let persistent_rate = persistent_cache_report () in
  let persistent_extras = [ ("persistent_cache_hit_rate", persistent_rate) ] in
  let serve_extras = serve_report ~smoke in
  let flight_extras = flight_report () in
  if smoke then begin
    (* CI smoke: the hot-spot kernels at reduced sizes plus the (cheap)
       persistent-store replay, daemon round-trips and flight-recorder
       A/A; skip the Bechamel suite and the in-memory cache/obs reports
       to keep the job short. *)
    if json then
      write_json "BENCH_spice.json" ~newton_allocation_free:allocation_free
        ~extras:(persistent_extras @ serve_extras @ flight_extras @ asym_extras) []
  end
  else begin
    let cache_hit_rate = cache_rerun_report () in
    let obs_extras = obs_report () in
    let results = run_benchmarks () in
    let extras =
      engine_speedups results
      @ [ ("engine_cache_hit_rate_rerun", cache_hit_rate) ]
      @ persistent_extras
      @ serve_extras
      @ flight_extras
      @ obs_extras
      @ asym_extras
    in
    if json then
      write_json "BENCH_spice.json" ~newton_allocation_free:allocation_free ~extras results
  end
