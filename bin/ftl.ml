(* ftl — four-terminal switching lattice toolkit.

   Command-line front end over the reproduction experiments and the
   synthesis flow. `ftl all` regenerates every table/figure of the paper;
   the other subcommands expose individual experiments and the synthesis
   tools. *)

open Cmdliner

let print_report r = print_string (Lattice_experiments.Report.render r)

(* --- parallel batch engine -------------------------------------------- *)

let domains_arg =
  let doc =
    "Worker domains for the parallel batch-simulation engine. Defaults to \
     the $(b,FTL_DOMAINS) environment variable when set, else the number \
     of cores. Results are bit-identical at any domain count."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Root of the crash-safe persistent DC-result cache. Results are spilled \
     to content-addressed entry files under $(docv) (atomic writes, \
     per-entry checksums; corrupt entries are detected and treated as \
     misses), so a re-run of an identical campaign in a fresh process \
     starts warm. Defaults to the $(b,FTL_CACHE_DIR) environment variable \
     when set; an empty string disables the store."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let deadline_arg =
  let doc =
    "Per-job wall-clock deadline in seconds. A job (one Monte-Carlo die, \
     one defect sample) that overruns is stopped at the next solver \
     checkpoint and classified as timed out instead of stalling the batch; \
     with $(b,--retries), timed-out jobs are retried under a deadline grown \
     by 2x per attempt."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let batch_deadline_arg =
  let doc =
    "Whole-batch wall-clock deadline in seconds. When it expires, in-flight \
     jobs stop at their next checkpoint and remaining jobs are classified \
     as cancelled; the command still reports every job."
  in
  Arg.(value & opt (some float) None & info [ "batch-deadline" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc =
    "Retries per job on top of the first attempt. Crashed jobs are always \
     eligible; timed-out jobs when $(b,--deadline) is set (budget doubles \
     each attempt); non-convergent defect samples are re-run under an \
     escalated Newton budget."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

(* The engine a subcommand runs on, built on first use: paths that never
   simulate ([run --check], [synth] without [-e]) never open the store
   directory. *)
let engine_term =
  let make domains cache_dir () = Lattice_engine.Engine.create ?domains ?store_dir:cache_dir () in
  Term.(const make $ domains_arg $ cache_dir_arg)

(* [--deadline], [--retries] and [--batch-deadline] as a batch's job
   policy and cancel token, made when the batch starts: the batch
   deadline runs from then *)
let batch_term =
  let make deadline batch_deadline retries () =
    ( { Lattice_engine.Engine.deadline_s = deadline; attempts = 1 + Int.max 0 retries },
      Lattice_engine.Cancel.of_deadline_s batch_deadline )
  in
  Term.(const make $ deadline_arg $ batch_deadline_arg $ retries_arg)

(* telemetry is diagnostics, not results: keep stdout machine-parseable *)
let print_engine_summary e = prerr_endline (Lattice_engine.Engine.summary e)

(* --- observability ----------------------------------------------------- *)

(* Global [--trace FILE] / [--metrics] flags, threaded through every
   subcommand as a leading unit argument so enabling happens before the
   command body runs. The trace file and the metrics summary are emitted
   from [at_exit], after the command (and any [at_exit] engine summaries)
   finished. *)
let obs_term =
  let trace_arg =
    let doc =
      "Record hierarchical spans (transient steps, Newton solves, LU \
       factor/solve, cache traffic, campaign phases) and write them to \
       $(docv) on exit — Chrome trace-event JSON loadable in Perfetto \
       (ui.perfetto.dev) or chrome://tracing, or JSONL when $(docv) ends \
       in .jsonl."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Collect counters and log-scale histograms (Newton iterations per \
       solve, factor/solve times, transient step sizes, cache hit \
       latency) and print the summary to stderr on exit."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let setup trace metrics =
    (match trace with
    | None -> ()
    | Some path ->
      Lattice_obs.Trace.set_enabled true;
      at_exit (fun () ->
          Lattice_obs.Export.write ~path;
          Printf.eprintf "trace written to %s\n%!" path));
    if metrics then begin
      Lattice_obs.Metrics.set_enabled true;
      at_exit (fun () -> prerr_string (Lattice_obs.Export.summary ()))
    end
  in
  Term.(const setup $ trace_arg $ metrics_arg)

(* --- target expression -------------------------------------------------- *)

type target = {
  text : string;  (** the expression as given *)
  ast : Lattice_boolfn.Expr.t;
  nvars : int;
  tt : Lattice_boolfn.Truthtable.t;
  pname : int -> string;  (** variable names, [v<i>] past the named ones *)
}

(* The EXPR positional, parsed once. A malformed expression is a usage
   error (exit 2), as a malformed deck is for [ftl run]. *)
let expr_term ?(doc = "Target expression.") () =
  let parse text =
    match Lattice_boolfn.Expr.parse text with
    | exception Lattice_boolfn.Expr.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 2
    | ast, names ->
      let nvars = Array.length names in
      {
        text;
        ast;
        nvars;
        tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars;
        pname = (fun i -> if i < nvars then names.(i) else Printf.sprintf "v%d" i);
      }
  in
  Term.(const parse $ Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR" ~doc))

let dual_grid target =
  (Lattice_synthesis.Altun_riedel.synthesize target.tt).Lattice_synthesis.Altun_riedel.grid

(* --- all -------------------------------------------------------------- *)

let all_cmd =
  let doc = "regenerate every table and figure of the paper" in
  Cmd.v (Cmd.info "all" ~doc) Term.(const Lattice_experiments.All.print_all $ obs_term)

(* --- table1 ----------------------------------------------------------- *)

let table1 () max_dim =
  print_report (Lattice_experiments.Exp_table1.report ~max_dim ())

let table1_cmd =
  let max_dim =
    let doc =
      "Largest lattice dimension to recompute (2-12). Counting runs on the \
       path-family ZDD, so the full published table (9) takes well under a \
       second and dimensions 10-12 extend past the paper."
    in
    Arg.(value & opt int 8 & info [ "d"; "max-dim" ] ~docv:"DIM" ~doc)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"recompute Table I (products of the m x n lattice function)")
    Term.(const table1 $ obs_term $ max_dim)

(* --- function --------------------------------------------------------- *)

let lattice_function () rows cols =
  if rows * cols > 62 then prerr_endline "lattice too large (max 62 sites)"
  else begin
    let sop = Lattice_core.Lattice_function.of_generic ~rows ~cols in
    Printf.printf "f(%dx%d) has %d products:\n%s\n" rows cols
      (Lattice_boolfn.Sop.product_count sop)
      (Lattice_boolfn.Sop.to_string ~names:Lattice_boolfn.Sop.default_names sop)
  end

let rows_arg =
  Arg.(value & opt int 3 & info [ "m"; "rows" ] ~docv:"M" ~doc:"Lattice rows.")

let cols_arg =
  Arg.(value & opt int 3 & info [ "n"; "cols" ] ~docv:"N" ~doc:"Lattice columns.")

let function_cmd =
  Cmd.v
    (Cmd.info "function" ~doc:"print the generic m x n lattice function")
    Term.(const lattice_function $ obs_term $ rows_arg $ cols_arg)

(* --- synth ------------------------------------------------------------ *)

let synth () target exhaustive max_area engine =
  let grid = dual_grid target in
  Printf.printf "dual-based synthesis (%dx%d):\n%s\n"
    grid.Lattice_core.Grid.rows grid.Lattice_core.Grid.cols
    (Lattice_core.Grid.to_string ~names:target.pname grid);
  Printf.printf "validates: %b\n"
    (Lattice_synthesis.Validate.realizes grid target.tt);
  if exhaustive then begin
    let engine = engine () in
    (match
       Lattice_synthesis.Exhaustive.minimal
         ~alphabet:Lattice_synthesis.Exhaustive.Literals_and_constants ~max_area target.tt
     with
    | Some (g, rr, cc) ->
      Printf.printf "\nexhaustive minimum (%dx%d):\n%s\n" rr cc
        (Lattice_core.Grid.to_string ~names:target.pname g);
      if target.nvars <= 5 then
        Printf.printf "circuit-validates: %b\n"
          (Lattice_synthesis.Exhaustive.validate_circuit ~engine g ~target:target.tt)
    | None -> Printf.printf "\nno lattice up to area %d realizes the function\n" max_area);
    print_engine_summary engine
  end

let synth_cmd =
  let expr = expr_term ~doc:"Boolean expression, e.g. \"a b' + c\" or \"a ^ b ^ c\"." () in
  let exhaustive =
    Arg.(value & flag & info [ "e"; "exhaustive" ] ~doc:"Also search for the minimum-size lattice.")
  in
  let max_area =
    Arg.(value & opt int 9 & info [ "max-area" ] ~docv:"AREA" ~doc:"Exhaustive-search area cap.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"synthesize a lattice for a Boolean expression")
    Term.(const synth $ obs_term $ expr $ exhaustive $ max_area $ engine_term)

(* --- device experiments ---------------------------------------------- *)

let shape_arg =
  let shape_conv =
    Arg.enum
      [ ("square", Lattice_device.Geometry.Square);
        ("cross", Lattice_device.Geometry.Cross);
        ("junctionless", Lattice_device.Geometry.Junctionless) ]
  in
  Arg.(value & opt shape_conv Lattice_device.Geometry.Square
       & info [ "s"; "shape" ] ~docv:"SHAPE" ~doc:"Device shape: square, cross or junctionless.")

let iv_cmd =
  let run () shape engine =
    let engine = engine () in
    print_report (Lattice_experiments.Exp_iv.report ~engine shape);
    print_engine_summary engine
  in
  Cmd.v (Cmd.info "iv" ~doc:"device I-V curves and figures of merit (Figs 5-7)")
    Term.(const run $ obs_term $ shape_arg $ engine_term)

let field_cmd =
  let run () n = print_report (Lattice_experiments.Exp_field.report ~n ()) in
  let n_arg =
    let doc =
      "Field-solver grid resolution. Grids of 32 cells and up are solved by \
       geometric multigrid (V-cycle-preconditioned CG), smaller ones by plain \
       CG; 256 and beyond stay interactive."
    in
    Arg.(value & opt int 48 & info [ "n"; "grid" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "field" ~doc:"current-density profiles (Fig 8)")
    Term.(const run $ obs_term $ n_arg)

let fit_cmd =
  let run () = print_report (Lattice_experiments.Exp_fit.report ()) in
  Cmd.v (Cmd.info "fit" ~doc:"level-1 MOSFET parameter extraction (Fig 10)")
    Term.(const run $ obs_term)

let xor3_cmd =
  let run () =
    print_report (Lattice_experiments.Exp_xor3.report ());
    print_report (Lattice_experiments.Exp_transient.report ())
  in
  Cmd.v (Cmd.info "xor3" ~doc:"XOR3 lattices and the Fig 11 transient")
    Term.(const run $ obs_term)

let series_cmd =
  let run () max_n = print_report (Lattice_experiments.Exp_series.report ~max_n ()) in
  let max_n =
    Arg.(value & opt int 21 & info [ "max-n" ] ~docv:"N" ~doc:"Longest chain to simulate.")
  in
  Cmd.v (Cmd.info "series" ~doc:"series-switch drive capability (Fig 12)")
    Term.(const run $ obs_term $ max_n)

let table2_cmd =
  let run () = print_report (Lattice_experiments.Exp_table2.report ()) in
  Cmd.v (Cmd.info "table2" ~doc:"device structural features (Table II)")
    Term.(const run $ obs_term)

(* --- optimize (paper Sec VI-A automated design tool) ------------------- *)

let optimize () target use_spice max_area =
  let spec = { Lattice_flow.Optimizer.default_spec with Lattice_flow.Optimizer.max_area } in
  let ranked = Lattice_flow.Optimizer.optimize ~spec ~use_spice ~expr:target.ast target.tt in
  List.iter
    (fun e -> print_endline (Lattice_flow.Optimizer.describe e ~names:target.pname))
    ranked

let optimize_cmd =
  let expr = expr_term () in
  let use_spice =
    Arg.(value & flag & info [ "spice" ] ~doc:"Measure delay/power with the circuit simulator.")
  in
  let max_area =
    Arg.(value & opt (some int) None & info [ "max-area" ] ~docv:"N" ~doc:"Area bound (switches).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"rank lattice implementations by area/delay/power")
    Term.(const optimize $ obs_term $ expr $ use_spice $ max_area)

(* --- faults ------------------------------------------------------------ *)

let faults () target =
  let grid = dual_grid target in
  Printf.printf "lattice (%dx%d):\n%s\n" grid.Lattice_core.Grid.rows
    grid.Lattice_core.Grid.cols
    (Lattice_core.Grid.to_string ~names:target.pname grid);
  let a = Lattice_synthesis.Faults.analyze grid in
  Printf.printf "single stuck-ON/OFF faults: %d total, %d detectable\n"
    a.Lattice_synthesis.Faults.total a.Lattice_synthesis.Faults.detectable;
  List.iter
    (fun f -> Printf.printf "  undetectable: %s\n" (Lattice_synthesis.Faults.fault_name f))
    a.Lattice_synthesis.Faults.undetectable;
  Printf.printf "greedy test set (%d vectors): %s\n"
    (List.length a.Lattice_synthesis.Faults.test_set)
    (String.concat ", "
       (List.map
          (fun m ->
            String.concat ""
              (List.init target.nvars (fun v -> string_of_int ((m lsr v) land 1))))
          a.Lattice_synthesis.Faults.test_set));
  Printf.printf "coverage of that set: %.1f%%\n"
    (100.0 *. Lattice_synthesis.Faults.coverage grid ~vectors:a.Lattice_synthesis.Faults.test_set)

let faults_cmd =
  Cmd.v
    (Cmd.info "faults" ~doc:"stuck-fault analysis and test generation for a synthesized lattice")
    Term.(const faults $ obs_term $ expr_term ())

let complementary_cmd =
  let run () = print_report (Lattice_experiments.Exp_complementary.report ()) in
  Cmd.v
    (Cmd.info "complementary" ~doc:"complementary lattice structure experiment (paper Sec VI-A)")
    Term.(const run $ obs_term)

let frequency_cmd =
  let run () = print_report (Lattice_experiments.Exp_frequency.report ()) in
  Cmd.v
    (Cmd.info "frequency" ~doc:"maximum frequency and dynamic energy (paper Sec VI-A)")
    Term.(const run $ obs_term)

(* --- yield ------------------------------------------------------------- *)

let yield () target samples sigma_vth engine batch =
  let grid = dual_grid target in
  Printf.printf "lattice: %dx%d (dual-based)\n" grid.Lattice_core.Grid.rows
    grid.Lattice_core.Grid.cols;
  let engine = engine () in
  let policy, cancel = batch () in
  let mc =
    Lattice_flow.Monte_carlo.run ~engine ~policy ~cancel grid ~target:target.tt ~samples
      ~variation:{ Lattice_flow.Monte_carlo.sigma_vth; sigma_kp_rel = 0.1 }
  in
  Printf.printf
    "Monte-Carlo (%d samples, sigma_Vth %.0f mV, sigma_Kp 10%%):\n\
    \  yield %.1f%%   V_OL %.3f +- %.3f V   V_OH(min) %.3f V\n"
    samples (sigma_vth *. 1e3)
    (100.0 *. mc.Lattice_flow.Monte_carlo.yield)
    mc.Lattice_flow.Monte_carlo.v_low_mean mc.Lattice_flow.Monte_carlo.v_low_std
    mc.Lattice_flow.Monte_carlo.v_high_mean;
  print_engine_summary engine

let yield_cmd =
  let samples =
    Arg.(value & opt int 100 & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples.")
  in
  let sigma =
    Arg.(value & opt float 0.03 & info [ "sigma-vth" ] ~docv:"V" ~doc:"Vth sigma in volts.")
  in
  Cmd.v
    (Cmd.info "yield" ~doc:"Monte-Carlo process-variation yield of a synthesized lattice")
    Term.(
      const yield $ obs_term $ expr_term () $ samples $ sigma $ engine_term $ batch_term)

(* --- defects ----------------------------------------------------------- *)

let defects () target all_classes engine batch =
  let grid = dual_grid target in
  Printf.printf "lattice: %dx%d (dual-based)\n" grid.Lattice_core.Grid.rows
    grid.Lattice_core.Grid.cols;
  let module Fc = Lattice_flow.Fault_campaign in
  let classes =
    if all_classes then Lattice_spice.Defects.all_classes
    else [ Lattice_spice.Defects.Opens; Lattice_spice.Defects.Shorts ]
  in
  let options = { Fc.default_options with Fc.classes } in
  let engine = engine () in
  let policy, cancel = batch () in
  let rep = Fc.run ~engine ~policy ~cancel ~options grid ~target:target.tt in
  Printf.printf
    "campaign: %d samples — %d functional, %d degraded, %d faulty, %d non-convergent\n"
    (Array.length rep.Fc.samples) rep.Fc.counts.Fc.functional rep.Fc.counts.Fc.degraded
    rep.Fc.counts.Fc.faulty rep.Fc.counts.Fc.non_convergent;
  Printf.printf "test set (%d vectors) detects %d/%d samples; %d silent\n"
    (List.length rep.Fc.test_set) rep.Fc.detected (Array.length rep.Fc.samples) rep.Fc.silent;
  List.iter
    (fun (rp : Fc.repair) ->
      match rp.Fc.remapped with
      | None ->
        Printf.printf "  repair %s: no remapping found\n" (Lattice_spice.Defects.name rp.Fc.defect)
      | Some g ->
        Printf.printf "  repair %s: remapped to %dx%d (%+d spare cols), re-verified %s\n"
          (Lattice_spice.Defects.name rp.Fc.defect) g.Lattice_core.Grid.rows
          g.Lattice_core.Grid.cols rp.Fc.spare_cols_used
          (if rp.Fc.reverified then "OK" else "FAILED"))
    rep.Fc.repairs;
  print_engine_summary engine

let defects_cmd =
  let all_classes =
    Arg.(value & flag & info [ "all-classes" ] ~doc:"Include bridges, broken terminals and gate leaks.")
  in
  Cmd.v
    (Cmd.info "defects"
       ~doc:"circuit-level defect campaign (classification, detection, remapping) for a synthesized lattice")
    Term.(
      const defects $ obs_term $ expr_term () $ all_classes $ engine_term $ batch_term)

(* --- export ------------------------------------------------------------ *)

let export () target =
  let bit_time = 100e-9 in
  let lc =
    Lattice_spice.Lattice_circuit.build (dual_grid target)
      ~stimulus:(Lattice_spice.Lattice_circuit.exhaustive_stimulus ~vdd:1.2 ~bit_time)
  in
  let t_stop = bit_time *. float_of_int (1 lsl target.nvars) in
  let deck =
    Lattice_deck.Deck.of_netlist
      ~title:(Printf.sprintf "four-terminal switching lattice for %s" target.text)
      ~analyses:
        [ Lattice_deck.Deck.Op; Lattice_deck.Deck.Tran { step = bit_time /. 20.0; t_stop } ]
      ~prints:[ Lattice_deck.Deck.Vprobe lc.Lattice_spice.Lattice_circuit.output_node ]
      lc.Lattice_spice.Lattice_circuit.netlist
  in
  print_string (Lattice_deck.Deck.emit deck)

let export_cmd =
  Cmd.v
    (Cmd.info "export"
       ~doc:"synthesize a lattice and print its circuit as a canonical SPICE deck \
             (re-runnable with $(b,ftl run), byte-stable under parse/emit roundtrips)")
    Term.(const export $ obs_term $ expr_term ())

(* --- run (SPICE deck) --------------------------------------------------- *)

let read_deck_file path =
  try
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "ftl run: %s\n" msg;
    exit 2

let run_deck () path smoke check engine deadline =
  let file = if path = "-" then "<stdin>" else path in
  let src = read_deck_file path in
  match Lattice_deck.Deck.parse src with
  | Error e ->
    Printf.eprintf "%s\n" (Lattice_deck.Deck.error_to_string ~file e);
    exit 2
  | Ok deck ->
    if check then begin
      (* Roundtrip audit: emit must be a fixed point of parse∘emit, and the
         structural digest must survive the text boundary. *)
      let once = Lattice_deck.Deck.emit deck in
      match Lattice_deck.Deck.parse once with
      | Error e ->
        Printf.eprintf "%s: canonical form fails to reparse: %s\n" file
          (Lattice_deck.Deck.error_to_string e);
        exit 4
      | Ok deck2 ->
        let twice = Lattice_deck.Deck.emit deck2 in
        let d1 = Lattice_spice.Netlist.structural_digest deck.Lattice_deck.Deck.netlist in
        let d2 = Lattice_spice.Netlist.structural_digest deck2.Lattice_deck.Deck.netlist in
        if once <> twice then begin
          Printf.eprintf "%s: emit/parse roundtrip is not idempotent\n" file;
          exit 4
        end;
        if d1 <> d2 then begin
          Printf.eprintf "%s: structural digest changed across roundtrip (%s -> %s)\n" file d1 d2;
          exit 4
        end;
        Printf.printf "%s: roundtrip stable, digest %s preserved\n" file d1
    end
    else begin
      let engine = engine () in
      let cancel = Lattice_engine.Cancel.of_deadline_s deadline in
      match Lattice_deck.Runner.run ~engine ~cancel ~smoke deck with
      | Ok r ->
        print_string (Lattice_deck.Runner.render r);
        print_engine_summary engine
      | Error msg ->
        Printf.eprintf "ftl run: %s: %s\n" file msg;
        print_engine_summary engine;
        exit 3
      | exception Lattice_engine.Cancel.Cancelled reason ->
        Printf.eprintf "ftl run: %s: cancelled (%s)\n" file
          (Lattice_engine.Cancel.reason_name reason);
        exit 3
    end

let run_cmd =
  let deck_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DECK"
           ~doc:"SPICE deck file ($(b,-) reads stdin).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Cap analysis sizes for CI smoke runs (transients to 50 steps, \
                 sweeps to 5 points, AC to 3 points/decade).")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Do not simulate; verify the deck's emit/parse roundtrip is \
                 idempotent and digest-preserving, then exit.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"parse a SPICE deck and execute its analysis cards through the batch engine")
    Term.(
      const run_deck $ obs_term $ deck_file $ smoke $ check $ engine_term $ deadline_arg)

(* --- histogram ----------------------------------------------------------- *)

let histogram () rows cols =
  let h = Lattice_core.Paths.length_histogram ~rows ~cols in
  Printf.printf "products of the %dx%d lattice function by literal count:\n" rows cols;
  let total = Array.fold_left ( + ) 0 h in
  Array.iteri
    (fun k count ->
      if count > 0 then begin
        let bar_len = Int.max 1 (count * 50 / Int.max 1 total) in
        Printf.printf "  %2d literals: %9d %s\n" k count (String.make bar_len '#')
      end)
    h;
  Printf.printf "  total: %d products\n" total

let histogram_cmd =
  Cmd.v
    (Cmd.info "histogram" ~doc:"product-size distribution of the generic m x n lattice function")
    Term.(const histogram $ obs_term $ rows_arg $ cols_arg)

(* --- serve ------------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path to listen on (serve) or connect to (client)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_port_arg =
  let doc = "TCP port to listen on (serve; 0 picks an ephemeral port) or connect to (client)." in
  Arg.(value & opt (some int) None & info [ "tcp-port" ] ~docv:"PORT" ~doc)

let tcp_host_arg =
  let doc = "Host for $(b,--tcp-port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "tcp-host" ] ~docv:"HOST" ~doc)

(* [--socket] or [--tcp-port]/[--tcp-host] as the daemon address [cmd]
   connects to *)
let addr_term cmd =
  let resolve socket tcp_port tcp_host =
    match (socket, tcp_port) with
    | Some path, _ -> Lattice_serve.Client.Unix_socket path
    | None, Some port -> Lattice_serve.Client.Tcp (tcp_host, port)
    | None, None ->
      Printf.eprintf "ftl %s: pass --socket PATH or --tcp-port N\n" cmd;
      exit 2
  in
  Term.(const resolve $ socket_arg $ tcp_port_arg $ tcp_host_arg)

let serve () socket tcp_port tcp_host domains cache_dir workers queue quota default_deadline
    max_frame drain allow_sleep quiet flight_dir slow_ms access_log =
  let module S = Lattice_serve.Server in
  if socket = None && tcp_port = None then begin
    prerr_endline "ftl serve: pass --socket PATH and/or --tcp-port N";
    exit 2
  end;
  let config =
    {
      S.socket_path = socket;
      tcp_port;
      tcp_host;
      domains;
      store_dir = cache_dir;
      workers;
      queue_capacity = queue;
      max_inflight_per_client = quota;
      default_deadline_s = (if default_deadline > 0.0 then Some default_deadline else None);
      max_frame;
      drain_deadline_s = drain;
      allow_sleep;
      log =
        (if quiet then None
         else Some (fun line -> Printf.eprintf "[ftl-serve] %s\n%!" line));
      flight_dir = (match flight_dir with Some _ -> flight_dir | None -> S.default_config.S.flight_dir);
      slow_threshold_s = (match slow_ms with Some ms -> Some (ms /. 1e3) | None -> None);
      access_log_path = access_log;
    }
  in
  let t = S.create ~config () in
  S.run t;
  print_engine_summary (S.engine t)

let serve_cmd =
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker threads executing compute requests against the shared engine.")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-queue capacity; a full queue answers $(b,overloaded).")
  in
  let quota =
    Arg.(value & opt int 16 & info [ "quota" ] ~docv:"N"
           ~doc:"Per-connection in-flight request quota; beyond it the daemon answers \
                 $(b,quota_exceeded).")
  in
  let default_deadline =
    Arg.(value & opt float 30.0 & info [ "default-deadline" ] ~docv:"SECONDS"
           ~doc:"Deadline applied to requests that name none (0 disables).")
  in
  let max_frame =
    Arg.(value & opt int 65536 & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Request-line byte cap; longer frames answer $(b,frame_too_long).")
  in
  let drain =
    Arg.(value & opt float 10.0 & info [ "drain" ] ~docv:"SECONDS"
           ~doc:"Graceful-shutdown budget for draining queued and in-flight jobs.")
  in
  let allow_sleep =
    Arg.(value & flag & info [ "allow-sleep" ]
           ~doc:"Accept the test-only $(b,sleep) request (load/backpressure testing).")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress lifecycle logging.") in
  let flight_dir =
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
           ~doc:"Flight-recorder spool directory: a request that errors, times out or \
                 overruns $(b,--slow-ms) dumps the in-memory span ring there as \
                 Chrome-trace JSONL (bounded: 64 files / 16 MiB, oldest evicted). \
                 Defaults to $(b,FTL_FLIGHT_DIR) when set.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Also flight-dump requests slower than $(docv) milliseconds.")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Structured JSONL access log, one line per request (id, type, outcome, \
                 duration, cache hits, DC solves, retries); rotated at 8 MiB.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"long-running simulation daemon over newline-delimited JSON (Unix socket and/or TCP)")
    Term.(
      const serve $ obs_term $ socket_arg $ tcp_port_arg $ tcp_host_arg $ domains_arg
      $ cache_dir_arg $ workers $ queue $ quota $ default_deadline $ max_frame $ drain
      $ allow_sleep $ quiet $ flight_dir $ slow_ms $ access_log)

(* --- client ------------------------------------------------------------ *)

let client () addr deadline requests =
  let module C = Lattice_serve.Client in
  let module J = Lattice_serve.Json in
  let c = C.connect addr in
  let all_ok = ref true in
  (* under --trace, every request gets a fresh span here and carries
     trace_id/parent_span on the wire, so the daemon's spans for it link
     under ours: the exported file is one stitched Perfetto timeline *)
  let trace_id =
    if not (Lattice_obs.Trace.on ()) then None
    else
      Some
        (Printf.sprintf "ftl-%d-%06x" (Unix.getpid ())
           (int_of_float (Unix.gettimeofday () *. 1e3) land 0xffffff))
  in
  let seq = ref 0 in
  let send line =
    let line = String.trim line in
    if line <> "" then begin
      (* a bare word is shorthand for {"type": word}; JSON passes through *)
      let line =
        if line.[0] = '{' then line
        else
          J.to_string
            (J.Obj
               (( "type", J.String line )
               ::
               (match deadline with
               | None -> []
               | Some d -> [ ("deadline_s", J.Float d) ])))
      in
      let line, span_args =
        match trace_id with
        | None -> (line, [])
        | Some tid -> (
          match J.parse line with
          | exception J.Parse_error _ -> (line, [])  (* let the daemon reject it *)
          | J.Obj pairs when not (List.mem_assoc "trace_id" pairs) ->
            incr seq;
            let span_id = Printf.sprintf "%s.%d" tid !seq in
            let ty =
              Option.value ~default:"?" (Option.bind (List.assoc_opt "type" pairs) J.to_str)
            in
            ( J.to_string
                (J.Obj
                   (pairs
                   @ [ ("trace_id", J.String tid); ("parent_span", J.String span_id) ])),
              [ ("trace_id", tid); ("span_id", span_id); ("request", ty) ] )
          | _ -> (line, []))
      in
      let call () =
        match C.call_raw c line with
        | resp ->
          print_endline resp;
          (match Lattice_serve.Protocol.parse_response resp with
          | Ok { Lattice_serve.Protocol.payload = Ok _; _ } -> ()
          | Ok _ | Error _ -> all_ok := false)
        | exception C.Protocol_error msg ->
          Printf.eprintf "ftl client: %s\n" msg;
          all_ok := false
      in
      if span_args = [] then call ()
      else Lattice_obs.Trace.with_span ~cat:"client" ~args:span_args "client.request" call
    end
  in
  (match requests with
  | [] -> ( try
      while true do
        send (input_line stdin)
      done
    with End_of_file -> ())
  | rs -> List.iter send rs);
  C.close c;
  if not !all_ok then exit 1

let client_cmd =
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Attach $(b,deadline_s) to shorthand (non-JSON) requests.")
  in
  let requests =
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"Requests: raw JSON objects, or bare type names (e.g. $(b,ping), \
                 $(b,stats), $(b,shutdown)). With none, NDJSON is read from stdin. \
                 Responses print to stdout, one line per request; the exit code is \
                 non-zero when any response is an error.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"send requests to a running ftl serve daemon (with the global $(b,--trace) \
             flag, requests carry trace_id/parent_span so daemon spans link under the \
             client's in one Perfetto timeline)")
    Term.(
      const client $ obs_term $ addr_term "client" $ deadline $ requests)

(* --- top --------------------------------------------------------------- *)

(* Live daemon monitor: poll [stats], redraw a plain-ANSI dashboard.
   Reads only the stats JSON — no extra daemon support needed. *)
let top () addr interval iterations =
  let module C = Lattice_serve.Client in
  let module J = Lattice_serve.Json in
  let mem path j =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  in
  let num path j =
    match Option.bind (mem path j) J.to_float with Some f -> f | None -> Float.nan
  in
  let int_ path j =
    match Option.bind (mem path j) J.to_int with Some n -> n | None -> 0
  in
  let fnum v = if Float.is_nan v then "    -" else Printf.sprintf "%8.2f" v in
  let tty = Unix.isatty Unix.stdout in
  let eol = if tty then "\027[K\n" else "\n" in
  let render j =
    let b = Buffer.create 2048 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ eol)) fmt in
    let where =
      match addr with
      | C.Unix_socket p -> p
      | C.Tcp (h, p) -> Printf.sprintf "%s:%d" h p
    in
    line "ftl top — %s   uptime %.0fs   conns %d   every %.1fs (q quits via Ctrl-C)" where
      (num [ "server"; "uptime_s" ] j)
      (int_ [ "server"; "connections" ] j)
      interval;
    line "requests %d   ok %d   err %d   timeouts %d   overloaded %d   quota %d   malformed %d"
      (int_ [ "server"; "requests" ] j) (int_ [ "server"; "ok" ] j)
      (int_ [ "server"; "errors" ] j)
      (int_ [ "server"; "request_timeouts" ] j)
      (int_ [ "server"; "overloaded" ] j)
      (int_ [ "server"; "quota_rejected" ] j)
      (int_ [ "server"; "malformed" ] j);
    let inflight = int_ [ "server"; "inflight" ] j in
    let workers = int_ [ "server"; "workers" ] j in
    let util = if workers = 0 then 0.0 else 100.0 *. float_of_int inflight /. float_of_int workers in
    line "queue %d/%d   inflight %d/%d workers (%.0f%% busy)   flight dumps %d"
      (int_ [ "server"; "queue_depth" ] j)
      (int_ [ "server"; "queue_capacity" ] j)
      inflight workers util
      (int_ [ "server"; "flight_dumps" ] j);
    let hits = int_ [ "engine"; "cache"; "hits" ] j in
    let misses = int_ [ "engine"; "cache"; "misses" ] j in
    let hit_rate =
      if hits + misses = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
    in
    line "engine: dc_solves %d   cache %d hit / %d miss (%.1f%% hit)   retries %d"
      (int_ [ "engine"; "dc_solves" ] j) hits misses hit_rate
      (int_ [ "engine"; "retries" ] j);
    line "";
    line "window (%.0fs)   rate %.2f req/s" (num [ "window"; "window_s" ] j)
      (let r = num [ "window"; "all"; "rate_per_s" ] j in
       if Float.is_nan r then 0.0 else r);
    line "  %-12s %7s %5s %5s %8s %8s %8s %8s" "type" "count" "err" "t/o" "p50ms" "p95ms"
      "p99ms" "maxms";
    let row label s =
      line "  %-12s %7d %5d %5d %s %s %s %s" label (int_ [ "count" ] s) (int_ [ "errors" ] s)
        (int_ [ "timeouts" ] s)
        (fnum (num [ "p50_ms" ] s))
        (fnum (num [ "p95_ms" ] s))
        (fnum (num [ "p99_ms" ] s))
        (fnum (num [ "max_ms" ] s))
    in
    (match mem [ "window"; "all" ] j with Some s -> row "all" s | None -> ());
    (match mem [ "window"; "by_type" ] j with
    | Some (J.Obj per) -> List.iter (fun (name, s) -> row name s) per
    | Some _ | None -> ());
    Buffer.contents b
  in
  let c =
    try C.connect addr
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "ftl top: cannot connect: %s\n" (Unix.error_message e);
      exit 1
  in
  let n = ref 0 in
  (try
     let continue = ref true in
     while !continue do
       let j = C.stats c in
       (* home + draw + clear-below: flicker-free on a tty, plain dumps otherwise *)
       if tty then print_string ("\027[H" ^ render j ^ "\027[J")
       else print_string (render j);
       flush stdout;
       incr n;
       if iterations > 0 && !n >= iterations then continue := false
       else Unix.sleepf interval
     done
   with
  | C.Protocol_error msg ->
    Printf.eprintf "ftl top: %s\n" msg;
    C.close c;
    exit 1
  | Sys.Break -> ());
  C.close c

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh period between $(b,stats) polls.")
  in
  let iterations =
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after $(docv) refreshes (0 = run until interrupted) — for scripts \
                 and transcripts.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"live monitor for a running ftl serve daemon: request mix, rolling \
             p50/p95/p99, queue depth, cache hit rate, worker utilization")
    Term.(const top $ obs_term $ addr_term "top" $ interval $ iterations)

let main =
  let doc = "four-terminal switching lattice toolkit (DATE 2019 reproduction)" in
  Cmd.group (Cmd.info "ftl" ~version:"1.0.0" ~doc)
    [
      all_cmd; table1_cmd; table2_cmd; function_cmd; synth_cmd; iv_cmd; field_cmd; fit_cmd;
      xor3_cmd; series_cmd; optimize_cmd; faults_cmd; complementary_cmd; frequency_cmd;
      yield_cmd; defects_cmd; export_cmd; run_cmd; histogram_cmd; serve_cmd; client_cmd;
      top_cmd;
    ]

let () = exit (Cmd.eval main)
