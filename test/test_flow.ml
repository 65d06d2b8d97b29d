(* Tests for the automated design tool (optimizer). *)

module Opt = Lattice_flow.Optimizer
module Tt = Lattice_boolfn.Truthtable

let xor3 = Tt.xor_n 3
let maj3 = Tt.majority_n 3

let candidates target = List.map (fun e -> e.Opt.implementation) (Opt.optimize target)

let test_candidates_valid () =
  (* every candidate must realize the target (modulo output inversion) *)
  List.iter
    (fun target ->
      List.iter
        (fun impl ->
          let effective =
            if impl.Opt.inverted then Tt.complement target else target
          in
          Alcotest.(check bool)
            (impl.Opt.method_name ^ " realizes target")
            true
            (Lattice_synthesis.Validate.realizes impl.Opt.grid effective))
        (candidates target))
    [ xor3; maj3; Tt.create 2 (fun m -> m = 3) ]

let test_candidates_distinct () =
  let impls = candidates maj3 in
  Alcotest.(check bool) "at least two candidates" true (List.length impls >= 2)

let test_estimate_sanity () =
  List.iter
    (fun impl ->
      let m = Opt.estimate impl in
      Alcotest.(check bool) "positive delay" true (m.Opt.delay > 0.0);
      Alcotest.(check bool) "positive power" true (m.Opt.static_power > 0.0);
      Alcotest.(check int) "area = switches" (Lattice_core.Grid.size impl.Opt.grid) m.Opt.area;
      Alcotest.(check bool) "not spice" false m.Opt.from_spice)
    (candidates xor3)

let test_estimate_scales_with_rows () =
  (* taller lattices have slower falls and lower static power *)
  let grid_of rows =
    { Opt.grid = Oracle.generic_grid rows 2; inverted = false; method_name = "test" }
  in
  let short = Opt.estimate (grid_of 2) and tall = Opt.estimate (grid_of 6) in
  Alcotest.(check bool) "taller = slower fall" true (tall.Opt.fall > short.Opt.fall)

let test_optimize_ranking () =
  let ranked = Opt.optimize maj3 in
  Alcotest.(check bool) "non-empty" true (ranked <> []);
  (* scores non-decreasing within the feasible prefix *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      if a.Opt.feasible && b.Opt.feasible then
        Alcotest.(check bool) "sorted by score" true (a.Opt.score <= b.Opt.score);
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted ranked;
  (* the exhaustive 2x3 majority lattice should beat the dual-based 3x3 on
     area when present *)
  match List.find_opt (fun e -> e.Opt.implementation.Opt.method_name = "exhaustive") ranked with
  | Some e -> Alcotest.(check int) "exhaustive maj3 area" 6 e.Opt.metrics.Opt.area
  | None -> Alcotest.fail "expected an exhaustive candidate for maj3"

let test_optimize_spec_bounds () =
  let spec = { Opt.default_spec with Opt.max_area = Some 6 } in
  let ranked = Opt.optimize ~spec maj3 in
  (* feasible candidates come first and respect the bound *)
  (match ranked with
  | first :: _ ->
    Alcotest.(check bool) "first is feasible" true first.Opt.feasible;
    Alcotest.(check bool) "bound respected" true (first.Opt.metrics.Opt.area <= 6)
  | [] -> Alcotest.fail "no candidates");
  let impossible = { Opt.default_spec with Opt.max_area = Some 1 } in
  let ranked = Opt.optimize ~spec:impossible maj3 in
  Alcotest.(check bool) "all infeasible under area 1" true
    (List.for_all (fun e -> not e.Opt.feasible) ranked)

let test_optimize_spice_agrees_in_order () =
  (* spice-based and analytic evaluation should agree on the qualitative
     facts: positive delays, power within 3x of the estimate *)
  let and2 = Tt.create 2 (fun m -> m = 3) in
  let analytic = Opt.optimize and2 in
  let spiced = Opt.optimize ~use_spice:true and2 in
  List.iter2
    (fun a s ->
      Alcotest.(check bool) "same method order" true
        (List.exists
           (fun s' -> s'.Opt.implementation.Opt.method_name = a.Opt.implementation.Opt.method_name)
           spiced);
      Alcotest.(check bool) "spice flag" true s.Opt.metrics.Opt.from_spice;
      let ratio = s.Opt.metrics.Opt.static_power /. Float.max 1e-18 a.Opt.metrics.Opt.static_power in
      Alcotest.(check bool)
        (Printf.sprintf "power within 3x (ratio %.2f)" ratio)
        true
        (ratio > 0.33 && ratio < 3.0))
    analytic spiced

let test_describe () =
  let ranked = Opt.optimize maj3 in
  match ranked with
  | e :: _ ->
    let s = Opt.describe e ~names:Lattice_boolfn.Sop.alpha_names in
    Alcotest.(check bool) "describe non-empty" true (String.length s > 40)
  | [] -> Alcotest.fail "no candidates"

(* --- Monte-Carlo --------------------------------------------------------- *)

module Mc = Lattice_flow.Monte_carlo

(* typical local mismatch: the XOR3 lattice should survive *)
let test_mc_nominal_yield () =
  let r =
    Mc.run Lattice_synthesis.Library.xor3_3x3 ~target:Lattice_synthesis.Library.xor3 ~samples:25
  in
  Alcotest.(check bool) (Printf.sprintf "yield %.2f >= 0.9" r.Mc.yield) true (r.Mc.yield >= 0.9);
  Alcotest.(check bool) "v_low near nominal" true
    (r.Mc.v_low_mean > 0.05 && r.Mc.v_low_mean < 0.35);
  Alcotest.(check int) "all outcomes recorded" 25 (Array.length r.Mc.outcomes)

let test_mc_zero_variation_is_nominal () =
  let r =
    Mc.run Lattice_synthesis.Library.xor3_3x3 ~target:Lattice_synthesis.Library.xor3
      ~variation:{ Mc.sigma_vth = 0.0; sigma_kp_rel = 0.0 } ~samples:3
  in
  Alcotest.(check (float 1e-9)) "yield 1.0" 1.0 r.Mc.yield;
  Alcotest.(check (float 1e-6)) "no spread" 0.0 r.Mc.v_low_std

let test_mc_extreme_variation_kills_yield () =
  let nominal =
    Mc.run Lattice_synthesis.Library.xor3_3x3 ~target:Lattice_synthesis.Library.xor3 ~samples:20
  in
  let extreme =
    Mc.run Lattice_synthesis.Library.xor3_3x3 ~target:Lattice_synthesis.Library.xor3 ~samples:20
      ~variation:{ Mc.sigma_vth = 0.4; sigma_kp_rel = 0.6 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "extreme %.2f < nominal %.2f" extreme.Mc.yield nominal.Mc.yield)
    true
    (extreme.Mc.yield < nominal.Mc.yield)

(* Determinism goldens: since the batch-engine change, Monte-Carlo draws
   each sample's perturbations from an index-derived RNG stream
   (Engine.sample_rng) instead of one sequential stream, so the exact
   outcome values for a given seed differ from the pre-engine ones. The
   run-vs-run checks below are unchanged in spirit — same seed still means
   the same result — and gained a stronger guarantee: sample k no longer
   depends on samples 0..k-1 (see the prefix-independence test). *)

let test_mc_deterministic_seed () =
  let run () =
    Mc.run Lattice_synthesis.Library.maj3_2x3 ~target:(Tt.majority_n 3) ~samples:10 ~seed:7
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-12)) "same yield" a.Mc.yield b.Mc.yield;
  Alcotest.(check (float 1e-12)) "same mean" a.Mc.v_low_mean b.Mc.v_low_mean

let test_mc_bit_identical () =
  (* same seed: not merely close — bit-identical yield and outcome array *)
  let run () =
    Mc.run Lattice_synthesis.Library.maj3_2x3 ~target:(Tt.majority_n 3) ~samples:8 ~seed:1234
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical yield" true (Float.equal a.Mc.yield b.Mc.yield);
  Alcotest.(check int) "same outcome count" (Array.length a.Mc.outcomes)
    (Array.length b.Mc.outcomes);
  Array.iteri
    (fun i (oa : Mc.outcome) ->
      let ob = b.Mc.outcomes.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "outcome %d identical" i)
        true
        (Bool.equal oa.Mc.functional ob.Mc.functional
        && Float.equal oa.Mc.worst_v_low ob.Mc.worst_v_low
        && Float.equal oa.Mc.worst_v_high ob.Mc.worst_v_high))
    a.Mc.outcomes

(* --- Monte-Carlo x engine -------------------------------------------------- *)

module Engine = Lattice_engine.Engine

let check_outcomes_identical name (a : Mc.outcome array) (b : Mc.outcome array) =
  Alcotest.(check int) (name ^ ": outcome count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (oa : Mc.outcome) ->
      let ob = b.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: outcome %d identical" name i)
        true
        (Bool.equal oa.Mc.functional ob.Mc.functional
        && Float.equal oa.Mc.worst_v_low ob.Mc.worst_v_low
        && Float.equal oa.Mc.worst_v_high ob.Mc.worst_v_high))
    a

let test_mc_parallel_parity () =
  (* serial vs 1, 2 and 4 domains: bit-identical outcomes and yield *)
  let run ?engine () =
    Mc.run ?engine Lattice_synthesis.Library.maj3_2x3 ~target:(Tt.majority_n 3) ~samples:12
      ~seed:5
  in
  let serial = run () in
  List.iter
    (fun domains ->
      let e = Engine.create ~domains () in
      let parallel = run ~engine:e () in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: bit-identical yield" domains)
        true
        (Float.equal serial.Mc.yield parallel.Mc.yield);
      check_outcomes_identical (Printf.sprintf "%d domains" domains) serial.Mc.outcomes
        parallel.Mc.outcomes;
      let t = Engine.telemetry e in
      Alcotest.(check int) "samples dispatched as jobs" 12 t.Engine.jobs)
    [ 1; 2; 4 ]

let test_mc_prefix_independence () =
  (* index-derived RNG streams: sample k is the same whether 4 or 8 samples
     run — a property the old sequential stream did not have *)
  let run samples =
    Mc.run Lattice_synthesis.Library.maj3_2x3 ~target:(Tt.majority_n 3) ~samples ~seed:11
  in
  let small = run 4 and large = run 8 in
  check_outcomes_identical "first 4 of 8" small.Mc.outcomes (Array.sub large.Mc.outcomes 0 4)

(* --- Fault campaign ------------------------------------------------------- *)

module Fc = Lattice_flow.Fault_campaign
module Defects = Lattice_spice.Defects
module Grid = Lattice_core.Grid

let check_report_sane (r : Fc.report) =
  let n = Array.length r.Fc.samples in
  Alcotest.(check int) "every sample classified"
    n
    (r.Fc.counts.Fc.functional + r.Fc.counts.Fc.degraded + r.Fc.counts.Fc.faulty
   + r.Fc.counts.Fc.non_convergent);
  Array.iter
    (fun (s : Fc.sample) ->
      (match s.Fc.classification with
      | Fc.Non_convergent ->
        (match s.Fc.failure with
        | None -> Alcotest.fail "non-convergent sample without diagnostics"
        | Some _ -> ())
      | Fc.Functional | Fc.Degraded | Fc.Faulty ->
        Alcotest.(check bool) "failure only on non-convergence" true (s.Fc.failure = None));
      Alcotest.(check bool) "newton iterations recorded" true (s.Fc.newton_iterations >= 0);
      List.iter
        (fun v ->
          Alcotest.(check bool) "detected_by is a subset of mismatches" true
            (List.mem v s.Fc.mismatches))
        s.Fc.detected_by)
    r.Fc.samples

let test_campaign_xor3_full_universe () =
  (* the whole 14-defects-per-site universe over the paper's XOR3 3x3:
     must complete with zero uncaught exceptions and classify everything *)
  let grid = Lattice_synthesis.Library.xor3_3x3 in
  let options = { Fc.default_options with Fc.attempt_repair = false } in
  let r = Fc.run ~options grid ~target:Lattice_synthesis.Library.xor3 in
  Alcotest.(check int) "14 defects x 9 sites" 126 (Array.length r.Fc.samples);
  check_report_sane r;
  (* each structural stuck defect on a non-constant site flips some output *)
  Alcotest.(check bool) "stuck defects produce faulty samples" true (r.Fc.counts.Fc.faulty >= 12);
  (* the (1,1) site is the grid's constant-1: stuck-short there is masked *)
  let masked =
    Array.exists
      (fun (s : Fc.sample) ->
        s.Fc.defects = [ { Defects.row = 1; col = 1; kind = Defects.Stuck_short } ]
        && s.Fc.classification = Fc.Functional)
      r.Fc.samples
  in
  Alcotest.(check bool) "stuck-short on the const-1 site is masked" true masked;
  (* logical cross-check: every faulty stuck-defect sample is caught by
     the greedy logical test set *)
  Array.iter
    (fun (s : Fc.sample) ->
      match s.Fc.defects with
      | [ { Defects.kind = Defects.Stuck_open | Defects.Stuck_short; _ } ]
        when s.Fc.classification = Fc.Faulty ->
        Alcotest.(check bool) "stuck defect detected by test set" true (s.Fc.detected_by <> [])
      | _ -> ())
    r.Fc.samples

let lattice_6x6_grid () =
  (* same fixed 36-switch lattice the sparse-parity test drives *)
  let entries =
    Array.init 36 (fun i ->
        let r = i / 6 and c = i mod 6 in
        Grid.Lit ((r + c) mod 3, (r * c) mod 2 = 0))
  in
  Grid.create 6 6 entries

let test_campaign_6x6 () =
  (* a 36-switch lattice: the campaign must scale past toy sizes and stay
     exception-free; the universe is restricted to the diagonal sites to
     keep the runtime test-friendly *)
  let grid = lattice_6x6_grid () in
  let target = Tt.create 3 (fun m -> Lattice_core.Connectivity.eval grid m) in
  let universe =
    List.concat_map
      (fun i ->
        [
          { Defects.row = i; col = i; kind = Defects.Stuck_open };
          { Defects.row = i; col = i; kind = Defects.Stuck_short };
        ])
      [ 0; 1; 2; 3; 4; 5 ]
    @ [ { Defects.row = 2; col = 3; kind = Defects.Bridge (Defects.North, Defects.East) } ]
  in
  let options =
    { Fc.default_options with Fc.attempt_repair = false; multi_defect_samples = 3; seed = 99 }
  in
  let r = Fc.run ~options ~universe grid ~target in
  Alcotest.(check int) "13 singles + 3 sampled combos" 16 (Array.length r.Fc.samples);
  check_report_sane r;
  Array.iteri
    (fun i (s : Fc.sample) ->
      if i >= 13 then
        Alcotest.(check int) "sampled combos carry 2 defects" 2 (List.length s.Fc.defects))
    r.Fc.samples

let test_campaign_non_convergent_diagnostics () =
  (* cripple the DC solver so every rung of the ladder fails: samples must
     come back classified (not raised) with the full structured failure *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let options =
    {
      Fc.default_options with
      Fc.dc = { Lattice_spice.Dcop.default_options with max_iterations = 1; damping = 1e-6 };
      attempt_repair = false;
    }
  in
  let universe = [ { Defects.row = 0; col = 0; kind = Defects.Gate_leak Defects.North } ] in
  let r = Fc.run ~options ~universe grid ~target:(Tt.majority_n 3) in
  check_report_sane r;
  Alcotest.(check int) "all samples non-convergent" (Array.length r.Fc.samples)
    r.Fc.counts.Fc.non_convergent;
  Array.iter
    (fun (s : Fc.sample) ->
      match s.Fc.failure with
      | None -> Alcotest.fail "missing diagnostics"
      | Some f ->
        Alcotest.(check int) "full 7-rung failed ladder" 7
          (List.length f.Lattice_spice.Dcop.attempts);
        Alcotest.(check bool) "residual norm positive" true
          (Float.is_finite f.Lattice_spice.Dcop.residual_norm
          && f.Lattice_spice.Dcop.residual_norm > 0.0);
        Alcotest.(check bool) "worst nodes named" true
          (f.Lattice_spice.Dcop.worst_nodes <> []))
    r.Fc.samples

let test_campaign_newton_budget () =
  (* a tiny budget exhausts mid-sample: classified non-convergent with a
     synthetic failure, never an exception *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let options =
    { Fc.default_options with Fc.budget = { Fc.newton_per_sample = 5 }; attempt_repair = false }
  in
  let universe = [ { Defects.row = 0; col = 0; kind = Defects.Stuck_open } ] in
  let r = Fc.run ~options ~universe grid ~target:(Tt.majority_n 3) in
  check_report_sane r;
  Alcotest.(check int) "budget exhaustion is non-convergent" 1 r.Fc.counts.Fc.non_convergent;
  match r.Fc.samples.(0).Fc.failure with
  | Some f ->
    Alcotest.(check bool) "message names the budget" true
      (String.length f.Lattice_spice.Dcop.message > 0
      && f.Lattice_spice.Dcop.attempts = [])
  | None -> Alcotest.fail "missing synthetic failure"

let test_campaign_repair_stuck_open () =
  (* the acceptance loop: a stuck-OPEN defect on the minimal maj3 lattice
     is detected by the logical test set, remapped around the pinned site
     (needs the spare column: the 2x3 fabric has no slack), and the
     repaired lattice re-verifies at circuit level with the defect still
     injected *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let universe =
    [
      { Defects.row = 0; col = 0; kind = Defects.Stuck_open };
      { Defects.row = 1; col = 2; kind = Defects.Stuck_short };
    ]
  in
  let r = Fc.run ~universe grid ~target:(Tt.majority_n 3) in
  check_report_sane r;
  Alcotest.(check int) "both defects repaired" 2 (List.length r.Fc.repairs);
  let open_repair =
    List.find (fun (rp : Fc.repair) -> rp.Fc.defect.Defects.kind = Defects.Stuck_open) r.Fc.repairs
  in
  Alcotest.(check bool) "stuck-open projects to logical stuck-OFF" true
    (open_repair.Fc.fault.Lattice_synthesis.Faults.kind = Lattice_synthesis.Faults.Stuck_off);
  (match open_repair.Fc.remapped with
  | None -> Alcotest.fail "no remapping found for the stuck-open defect"
  | Some g ->
    Alcotest.(check int) "remap used the spare column" 4 g.Grid.cols;
    Alcotest.(check bool) "pinned site is constant-0" true
      (Grid.entry g 0 0 = Grid.Const false));
  Alcotest.(check bool) "repaired lattice re-verified at circuit level" true
    open_repair.Fc.reverified;
  (* and the check is honest: the unrepaired lattice fails it *)
  let unrepaired =
    Fc.simulate grid ~target:(Tt.majority_n 3) ~test_set:[]
      [ { Defects.row = 0; col = 0; kind = Defects.Stuck_open } ]
  in
  Alcotest.(check bool) "defective original fails verification" true (unrepaired.Fc.mismatches <> [])

(* --- Fault campaign x engine ----------------------------------------------- *)

let check_samples_identical name (a : Fc.sample array) (b : Fc.sample array) =
  Alcotest.(check int) (name ^ ": sample count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (sa : Fc.sample) ->
      let sb = b.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sample %d identical" name i)
        true
        (sa.Fc.classification = sb.Fc.classification
        && sa.Fc.mismatches = sb.Fc.mismatches
        && sa.Fc.detected_by = sb.Fc.detected_by
        && sa.Fc.newton_iterations = sb.Fc.newton_iterations
        && Float.equal sa.Fc.worst_v_low sb.Fc.worst_v_low
        && Float.equal sa.Fc.worst_v_high sb.Fc.worst_v_high))
    a

let campaign_options =
  { Fc.default_options with Fc.classes = [ Defects.Opens; Defects.Shorts ] }

let check_reports_identical name (a : Fc.report) (b : Fc.report) =
  check_samples_identical name a.Fc.samples b.Fc.samples;
  Array.iteri
    (fun i (sa : Fc.sample) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: sample %d defects" name i)
        true
        (sa.Fc.defects = b.Fc.samples.(i).Fc.defects))
    a.Fc.samples;
  Alcotest.(check bool) (name ^ ": counts") true (a.Fc.counts = b.Fc.counts);
  Alcotest.(check bool) (name ^ ": logical analysis") true (a.Fc.logical = b.Fc.logical);
  Alcotest.(check (list int)) (name ^ ": test set") a.Fc.test_set b.Fc.test_set;
  Alcotest.(check int) (name ^ ": detected") a.Fc.detected b.Fc.detected;
  Alcotest.(check int) (name ^ ": silent") a.Fc.silent b.Fc.silent;
  Alcotest.(check int) (name ^ ": total newton") a.Fc.total_newton b.Fc.total_newton;
  Alcotest.(check int) (name ^ ": repairs") (List.length a.Fc.repairs) (List.length b.Fc.repairs);
  List.iteri
    (fun i ((ra : Fc.repair), (rb : Fc.repair)) ->
      let field what = Printf.sprintf "%s: repair %d %s" name i what in
      Alcotest.(check bool) (field "defect") true (ra.Fc.defect = rb.Fc.defect);
      Alcotest.(check bool) (field "fault") true (ra.Fc.fault = rb.Fc.fault);
      Alcotest.(check bool) (field "remapped grid") true (ra.Fc.remapped = rb.Fc.remapped);
      Alcotest.(check int) (field "spare columns") ra.Fc.spare_cols_used rb.Fc.spare_cols_used;
      Alcotest.(check bool) (field "reverified") ra.Fc.reverified rb.Fc.reverified)
    (List.combine a.Fc.repairs b.Fc.repairs)

let test_campaign_parallel_parity () =
  (* the default engine vs 2 and 4 domains on the maj3 campaign, repairs
     included: whole reports identical *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let default = Fc.run ~options:campaign_options grid ~target:(Tt.majority_n 3) in
  Alcotest.(check bool) "campaign has repairs to compare" true (default.Fc.repairs <> []);
  List.iter
    (fun domains ->
      let e = Engine.create ~domains () in
      let parallel = Fc.run ~engine:e ~options:campaign_options grid ~target:(Tt.majority_n 3) in
      check_reports_identical (Printf.sprintf "%d domains" domains) default parallel)
    [ 2; 4 ]

let test_campaign_cache_rerun () =
  (* the same engine run twice over the same campaign: the second pass
     must hit the content-addressed cache and still report identically —
     including per-sample Newton counts, which cached hits replay *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let e = Engine.create ~domains:2 () in
  let first = Fc.run ~engine:e ~options:campaign_options grid ~target:(Tt.majority_n 3) in
  let t1 = Engine.telemetry e in
  let second = Fc.run ~engine:e ~options:campaign_options grid ~target:(Tt.majority_n 3) in
  let t2 = Engine.telemetry e in
  Alcotest.(check bool) "second pass hits the cache" true
    (t2.Engine.cache.Lattice_engine.Cache.hits > t1.Engine.cache.Lattice_engine.Cache.hits);
  Alcotest.(check int) "no new solves on a warm cache" t1.Engine.dc_solves t2.Engine.dc_solves;
  check_samples_identical "warm cache" first.Fc.samples second.Fc.samples;
  Alcotest.(check int) "newton accounting identical warm" first.Fc.total_newton
    second.Fc.total_newton

(* --- Job-scoped workspace vs the per-state oracle ------------------------ *)

(* The flows' former per-state path, kept as the oracle: every input
   state is a fresh build and a fresh [solve_diag] on a fresh plan. The
   oracle remembers each solve's Newton iterations under its cache key,
   which is what an engine's cold run spends. *)
module Sp = Lattice_spice
module Key = Lattice_engine.Key
module Stats = Lattice_numerics.Stats

let oracle_solve spent ~options ?seed ?x0 netlist =
  let r = Sp.Dcop.solve_diag ~options ?x0 netlist in
  let iters =
    match r with
    | Ok (_, d) -> d.Sp.Dcop.newton_iterations
    | Error f -> List.fold_left (fun acc (_, k) -> acc + k) 0 f.Sp.Dcop.attempts
  in
  Hashtbl.replace spent (Key.dc_op ~options ?seed netlist) iters;
  r

(* The nominal circuit solved at every input state, each solution with
   its netlist and key: where the flows start their dies and samples *)
let oracle_nominal spent ~options config grid ~states =
  let vdd = config.Sp.Lattice_circuit.vdd in
  Array.init states (fun m ->
      let netlist =
        (Sp.Lattice_circuit.build ~config grid ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m))
          .Sp.Lattice_circuit.netlist
      in
      match oracle_solve spent ~options netlist with
      | Ok (x, _) -> Some (Key.dc_op ~options netlist, netlist, x)
      | Error _ -> None)

(* the solution [xn] of the nominal netlist [nom] mapped onto [netlist]
   by node name and source name; a node [nom] lacks starts at 0 V *)
let seed_x0 nom xn netlist =
  let x0 = Array.make (Sp.Netlist.unknowns netlist) 0.0 in
  Array.iteri
    (fun i name ->
      Option.iter (fun n -> x0.(i) <- xn.(Sp.Netlist.node_index n)) (Sp.Netlist.find_node nom name))
    (Sp.Netlist.all_node_names netlist);
  List.iter
    (function
      | Sp.Netlist.Vsource { name; index; _ } ->
        Option.iter
          (fun k -> x0.(Sp.Netlist.vsource_row netlist index) <- xn.(Sp.Netlist.vsource_row nom k))
          (Sp.Netlist.vsource_index nom name)
      | _ -> ())
    (Sp.Netlist.elements netlist);
  x0

(* [netlist] solved from a nominal solution, or from 0 V without one *)
let oracle_seeded spent ~options nominal netlist =
  match nominal with
  | None -> oracle_solve spent ~options netlist
  | Some (seed, nom, xn) -> oracle_solve spent ~options ~seed ~x0:(seed_x0 nom xn netlist) netlist

(* the largest node difference between [x] and [reference] in units of
   abstol + reltol |v|; the seeded-solve gate is 2 *)
let node_gap ~nnodes x reference =
  let o = Sp.Dcop.default_options in
  let worst = ref 0.0 in
  for i = 0 to nnodes - 1 do
    let r = reference.(i) in
    worst :=
      Float.max !worst (Float.abs (x.(i) -. r) /. (o.Sp.Dcop.abstol +. (o.Sp.Dcop.reltol *. Float.abs r)))
  done;
  !worst

(* Monte_carlo's die perturbation, draw for draw *)
let gaussian rng =
  let u1 = Float.max 1e-12 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let perturb_model rng (v : Mc.variation) = function
  | Lattice_mosfet.Model.L1 p ->
    Lattice_mosfet.Model.L1
      {
        p with
        Lattice_mosfet.Level1.vth = p.Lattice_mosfet.Level1.vth +. (v.Mc.sigma_vth *. gaussian rng);
        kp =
          Float.max 1e-9
            (p.Lattice_mosfet.Level1.kp *. (1.0 +. (v.Mc.sigma_kp_rel *. gaussian rng)));
      }
  | Lattice_mosfet.Model.L3 _ -> Alcotest.fail "oracle: level-1 dies only"

(* die [index] of [Monte_carlo.run ~variation ~seed grid] at input
   state [m], built afresh *)
let die_at ~variation ~seed grid index =
  let config = Sp.Lattice_circuit.default_config in
  let rng = Engine.sample_rng ~seed ~index in
  let t = config.Sp.Lattice_circuit.types in
  (* the same record expressions as the flow's, so the draws happen in
     the same (compiler-chosen) order *)
  let site_types =
    Array.init (Grid.size grid) (fun _ ->
        {
          Sp.Fts.type_a = perturb_model rng variation t.Sp.Fts.type_a;
          type_b = perturb_model rng variation t.Sp.Fts.type_b;
        })
  in
  let types_of_site r c = site_types.((r * grid.Grid.cols) + c) in
  fun m ->
    Sp.Lattice_circuit.build ~config ~types_of_site grid
      ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd:config.Sp.Lattice_circuit.vdd m)

let oracle_mc spent ~nominal ~variation ~samples ~seed grid ~target =
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let die index =
    let at = die_at ~variation ~seed grid index in
    let worst_low = ref 0.0 and worst_high = ref infinity and ok = ref true in
    for m = 0 to (1 lsl Tt.nvars target) - 1 do
      let lc = at m in
      match
        oracle_seeded spent ~options:Sp.Dcop.default_options nominal.(m)
          lc.Sp.Lattice_circuit.netlist
      with
      | Error _ -> ok := false
      | Ok (x, _) ->
        let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
        let expected_high = not (Tt.eval target m) in
        if not (Bool.equal (v > vdd /. 2.0) expected_high) then ok := false;
        if expected_high then worst_high := Float.min !worst_high v
        else worst_low := Float.max !worst_low v
    done;
    { Mc.functional = !ok; worst_v_low = !worst_low; worst_v_high = !worst_high }
  in
  let outcomes = Array.init samples die in
  let functional =
    Array.fold_left (fun acc o -> if o.Mc.functional then acc + 1 else acc) 0 outcomes
  in
  let v_lows = Array.map (fun o -> o.Mc.worst_v_low) outcomes in
  let v_highs =
    Array.map
      (fun o -> if Float.is_finite o.Mc.worst_v_high then o.Mc.worst_v_high else vdd)
      outcomes
  in
  {
    Mc.samples;
    yield = float_of_int functional /. float_of_int samples;
    outcomes;
    v_low_mean = Stats.mean v_lows;
    v_low_std = Stats.stddev v_lows;
    v_high_mean = Stats.mean v_highs;
  }

let defect_state spent ?nominal (options : Fc.options) grid ~defects m =
  let vdd = Sp.Lattice_circuit.default_config.vdd in
  let lc =
    Sp.Defects.build ~params:options.Fc.params ~defects grid
      ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m)
  in
  oracle_seeded spent ~options:options.Fc.dc
    (Option.bind nominal (fun n -> n.(m)))
    lc.Sp.Lattice_circuit.netlist
  |> Result.map (fun (x, d) ->
         ( Sp.Mna.voltage x
             (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist lc.Sp.Lattice_circuit.output_node),
           d ))

let oracle_sample spent ~nominal (options : Fc.options) grid ~target ~test_set defects =
  let vdd = Sp.Lattice_circuit.default_config.vdd in
  let used = ref 0 and worst_low = ref 0.0 and worst_high = ref infinity in
  let mismatches = ref [] and failure = ref None in
  (try
     for m = 0 to (1 lsl Tt.nvars target) - 1 do
       if !used >= options.Fc.budget.Fc.newton_per_sample then
         Alcotest.fail "oracle: Newton budget exhausted (not modelled)";
       match defect_state spent ~nominal options grid ~defects m with
       | Error f ->
         used := !used + List.fold_left (fun acc (_, k) -> acc + k) 0 f.Sp.Dcop.attempts;
         failure := Some f;
         raise Exit
       | Ok (v, d) ->
         used := !used + d.Sp.Dcop.newton_iterations;
         let expected_high = not (Tt.eval target m) in
         if not (Bool.equal (v > vdd /. 2.0) expected_high) then mismatches := m :: !mismatches;
         if expected_high then worst_high := Float.min !worst_high v
         else worst_low := Float.max !worst_low v
     done
   with Exit -> ());
  let mismatches = List.rev !mismatches in
  let classification =
    match !failure with
    | Some _ -> Fc.Non_convergent
    | None when mismatches <> [] -> Fc.Faulty
    | None ->
      let margin = 0.15 in
      if
        !worst_low > (vdd /. 2.0) -. margin
        || (Float.is_finite !worst_high && !worst_high < (vdd /. 2.0) +. margin)
      then Fc.Degraded
      else Fc.Functional
  in
  {
    Fc.defects;
    classification;
    worst_v_low = !worst_low;
    worst_v_high = !worst_high;
    mismatches;
    detected_by = List.filter (fun v -> List.mem v mismatches) test_set;
    failure = !failure;
    newton_iterations = !used;
  }

let oracle_verify spent options grid ~target ~defects =
  let vdd = Sp.Lattice_circuit.default_config.vdd in
  let rec go m =
    m >= 1 lsl Tt.nvars target
    ||
    match defect_state spent options grid ~defects m with
    | Error _ -> false
    | Ok (v, _) -> Bool.equal (v > vdd /. 2.0) (not (Tt.eval target m)) && go (m + 1)
  in
  go 0

(* The oracle campaign over the defect sets and remaps of [report]:
   drawing the sets and searching the remaps solve nothing, so they are
   the flow's own; every sample (from [nominal]'s solutions), every
   re-verification (from 0 V) and every derived count is recomputed on
   the per-state path. *)
let oracle_campaign spent ~nominal options grid ~target (report : Fc.report) =
  let samples =
    Array.map
      (fun (s : Fc.sample) ->
        oracle_sample spent ~nominal options grid ~target ~test_set:report.Fc.test_set
          s.Fc.defects)
      report.Fc.samples
  in
  let fold f = Array.fold_left (fun acc s -> acc + f s) 0 samples in
  let count c = fold (fun s -> if s.Fc.classification = c then 1 else 0) in
  let detected (s : Fc.sample) =
    s.Fc.detected_by <> [] || s.Fc.classification = Fc.Non_convergent
  in
  {
    report with
    Fc.samples;
    counts =
      {
        Fc.functional = count Fc.Functional;
        degraded = count Fc.Degraded;
        faulty = count Fc.Faulty;
        non_convergent = count Fc.Non_convergent;
      };
    detected = fold (fun s -> if detected s then 1 else 0);
    silent =
      fold (fun s ->
          match s.Fc.classification with
          | (Fc.Faulty | Fc.Degraded) when s.Fc.detected_by = [] -> 1
          | Fc.Functional | Fc.Degraded | Fc.Faulty | Fc.Non_convergent -> 0);
    repairs =
      List.map
        (fun (r : Fc.repair) ->
          {
            r with
            Fc.reverified =
              (match r.Fc.remapped with
              | None -> false
              | Some g -> oracle_verify spent options g ~target ~defects:[ r.Fc.defect ]);
          })
        report.Fc.repairs;
    total_newton = fold (fun s -> s.Fc.newton_iterations);
  }

let bits v = Marshal.to_string v [ Marshal.No_sharing ]

let test_workspace_vs_per_state_oracle () =
  (* seeded random campaigns and dies on library grids: the workspace
     flows give the oracle's reports bit for bit, and a cold engine spends
     the oracle's Newton iterations, at 1, 2 and 4 domains, cold and warm *)
  let st = Random.State.make [| 1515 |] in
  let a_b_or_c =
    let e, _ = Lattice_boolfn.Expr.parse "a (b + c)" in
    let target = Lattice_boolfn.Expr.to_truthtable e ~nvars:3 in
    ((Lattice_synthesis.Altun_riedel.synthesize target).Lattice_synthesis.Altun_riedel.grid, target)
  in
  let cases =
    [
      ("maj3 2x3", (Lattice_synthesis.Library.maj3_2x3, Tt.majority_n 3));
      ("xor3 3x3", (Lattice_synthesis.Library.xor3_3x3, Lattice_synthesis.Library.xor3));
      ("a (b + c)", a_b_or_c);
    ]
  in
  let jitter v = v *. Float.exp (Random.State.float st (2.0 *. Float.log 2.0) -. Float.log 2.0) in
  let repairs = ref 0 and multis = ref 0 in
  List.iter
    (fun (name, (grid, target)) ->
      for round = 0 to 1 do
        let label what = Printf.sprintf "%s round %d: %s" name round what in
        let mc_seed = Random.State.bits st in
        let variation =
          { Mc.sigma_vth = jitter 0.03; sigma_kp_rel = jitter 0.10 }
        in
        let singles = Array.of_list (Sp.Defects.single_defects grid) in
        let universe =
          List.init 4 (fun _ -> singles.(Random.State.int st (Array.length singles)))
          |> List.sort_uniq compare
        in
        let d = Sp.Defects.default_params in
        let options =
          {
            Fc.default_options with
            Fc.params =
              {
                Sp.Defects.r_open = jitter d.Sp.Defects.r_open;
                r_short = jitter d.Sp.Defects.r_short;
                r_bridge = jitter d.Sp.Defects.r_bridge;
                r_broken = jitter d.Sp.Defects.r_broken;
                r_leak = jitter d.Sp.Defects.r_leak;
              };
            multi_defect_samples = 2;
            seed = Random.State.bits st;
            (* remapping xor3 searches for seconds per defect and solves
               nothing; the smaller grids cover the re-verification *)
            attempt_repair = Grid.size grid < 9;
          }
        in
        let run_mc engine = Mc.run ~engine ~variation ~samples:5 ~seed:mc_seed grid ~target in
        let run_fc engine = Fc.run ~engine ~options ~universe grid ~target in
        let mc_spent = Hashtbl.create 64 and fc_spent = Hashtbl.create 64 in
        (* both flows seed from one nominal circuit (default config and
           DC options): the yield run solves it, the campaign hits *)
        let nominal =
          oracle_nominal mc_spent ~options:Sp.Dcop.default_options Sp.Lattice_circuit.default_config grid
            ~states:(1 lsl Tt.nvars target)
        in
        let mc_oracle =
          oracle_mc mc_spent ~nominal ~variation ~samples:5 ~seed:mc_seed grid ~target
        in
        let reference = run_fc (Engine.create ~domains:1 ~store_dir:"" ()) in
        let fc_oracle = oracle_campaign fc_spent ~nominal options grid ~target reference in
        repairs := !repairs + List.length reference.Fc.repairs;
        multis :=
          !multis
          + Array.fold_left
              (fun acc (s : Fc.sample) -> if List.length s.Fc.defects > 1 then acc + 1 else acc)
              0 reference.Fc.samples;
        let spent tbl = Hashtbl.fold (fun _ k acc -> acc + k) tbl 0 in
        List.iter
          (fun domains ->
            let engine = Engine.create ~domains ~store_dir:"" () in
            let newton () = (Engine.telemetry engine).Engine.newton_total in
            List.iter
              (fun pass ->
                let at what = label (Printf.sprintf "%d domains, %s, %s" domains pass what) in
                let n0 = newton () in
                let mc = run_mc engine in
                let n1 = newton () in
                let fc = run_fc engine in
                let n2 = newton () in
                Alcotest.(check bool) (at "MC report") true (String.equal (bits mc) (bits mc_oracle));
                Alcotest.(check bool) (at "campaign report") true
                  (String.equal (bits fc) (bits fc_oracle));
                let cold = pass = "cold" in
                Alcotest.(check int) (at "MC newton") (if cold then spent mc_spent else 0) (n1 - n0);
                Alcotest.(check int) (at "campaign newton")
                  (if cold then spent fc_spent else 0)
                  (n2 - n1))
              [ "cold"; "warm" ])
          [ 1; 2; 4 ]
      done)
    cases;
  Alcotest.(check bool) (Printf.sprintf "repairs re-verified (%d)" !repairs) true (!repairs > 0);
  Alcotest.(check bool) (Printf.sprintf "multi-defect samples (%d)" !multis) true (!multis > 0)

let test_validate_circuit_vs_oracle () =
  (* Exhaustive.validate_circuit checks a grid in one job on the shared
     workspace helper: the per-state oracle's verdict and, on a cold
     engine, its Newton iterations (both stop at the first failing
     state), at 1 and 2 domains; a warm re-run solves nothing *)
  let config = Sp.Lattice_circuit.default_config in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let oracle spent grid ~target =
    List.for_all
      (fun m ->
        let lc =
          Sp.Lattice_circuit.build ~config grid ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m)
        in
        match oracle_solve spent ~options:Sp.Dcop.default_options lc.Sp.Lattice_circuit.netlist with
        | Error _ -> false
        | Ok (x, _) ->
          let v = Sp.Mna.voltage x (Sp.Netlist.node lc.Sp.Lattice_circuit.netlist "out") in
          Bool.equal (v > vdd /. 2.0) (not (Tt.eval target m)))
      (List.init (1 lsl Tt.nvars target) Fun.id)
  in
  let maj3 = Tt.majority_n 3 and xor3 = Lattice_synthesis.Library.xor3 in
  List.iter
    (fun (name, grid, target, expected) ->
      let spent = Hashtbl.create 16 in
      Alcotest.(check bool) (name ^ ": oracle") expected (oracle spent grid ~target);
      let oracle_newton = Hashtbl.fold (fun _ k acc -> acc + k) spent 0 in
      List.iter
        (fun domains ->
          let engine = Engine.create ~domains ~store_dir:"" () in
          let at what = Printf.sprintf "%s, %d domains: %s" name domains what in
          let validate () =
            Lattice_synthesis.Exhaustive.validate_circuit ~engine grid ~target
          in
          Alcotest.(check bool) (at "verdict") expected (validate ());
          let cold = Engine.telemetry engine in
          Alcotest.(check int) (at "one job") 1 cold.Engine.jobs;
          Alcotest.(check int) (at "newton") oracle_newton cold.Engine.newton_total;
          Alcotest.(check bool) (at "warm verdict") expected (validate ());
          Alcotest.(check int) (at "warm solves nothing") cold.Engine.dc_solves
            (Engine.telemetry engine).Engine.dc_solves)
        [ 1; 2 ])
    [
      ("maj3 2x3", Lattice_synthesis.Library.maj3_2x3, maj3, true);
      ("maj3 2x3 vs its complement", Lattice_synthesis.Library.maj3_2x3, Tt.complement maj3, false);
      ("maj3 2x3 vs xor3", Lattice_synthesis.Library.maj3_2x3, xor3, false);
      ("xor3 3x3", Lattice_synthesis.Library.xor3_3x3, xor3, true);
    ]

let default_variation = { Mc.sigma_vth = 0.03; sigma_kp_rel = 0.10 }

let test_seeded_die_87 () =
  (* perfbench batch seed 3, op 1 runs Monte_carlo.run ~seed:48248188 on
     maj3 2x3. Die 87 converges at input state 1 only on the last rung,
     the gshunt ramp. Seeded from the nominal solution, its plain rung
     fails, the fallbacks start from 0 V as an unseeded solve's do, and
     the ramp wins at the unseeded answer. A damped rung started from
     the seed converges instead, with pd.v_1_3 at 0.369 V against
     0.199 V. *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let config = Sp.Lattice_circuit.default_config in
  let nominal =
    oracle_nominal (Hashtbl.create 8) ~options:Sp.Dcop.default_options config grid ~states:8
  in
  let at m = (die_at ~variation:default_variation ~seed:48248188 grid 87 m).Sp.Lattice_circuit.netlist in
  (* on one plan, as the die's job solves its states in order *)
  let plan = Sp.Stamp_plan.compile (at 0) in
  let seeded m =
    match nominal.(m) with
    | Some (_, nom, xn) -> Sp.Dcop.solve_diag ~plan ~x0:(seed_x0 nom xn (at m)) (at m)
    | None -> Alcotest.failf "nominal state %d did not converge" m
  in
  ignore (seeded 0);
  match (seeded 1, Sp.Dcop.solve_diag (at 1)) with
  | Ok (xs, ds), Ok (xu, du) ->
    Alcotest.(check string) "unseeded: the gshunt ramp wins" "gshunt-ramp"
      (Sp.Dcop.strategy_name du.Sp.Dcop.strategy);
    Alcotest.(check string) "seeded: the gshunt ramp wins" "gshunt-ramp"
      (Sp.Dcop.strategy_name ds.Sp.Dcop.strategy);
    let gap = node_gap ~nnodes:(Sp.Netlist.num_nodes (at 1)) xs xu in
    Alcotest.(check bool) (Printf.sprintf "every node within the gate (%.3g)" gap) true (gap <= 2.0)
  | Error f, _ | _, Error f -> Alcotest.fail (Sp.Dcop.pp_failure f)

let test_seeded_sweep () =
  (* seeded solves as the flows run them, on one plan per circuit from
     the nominal solution at each state, against fresh unseeded solves:
     dies and defect samples of maj3 2x3 and the Altun-Riedel XOR3 at a
     fixed seed. Both converge or both fail, and every node of a
     converged pair is within the gate. *)
  let st = Random.State.make [| 2424 |] in
  let config = Sp.Lattice_circuit.default_config in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let xor3 =
    (Lattice_synthesis.Altun_riedel.synthesize Lattice_synthesis.Library.xor3)
      .Lattice_synthesis.Altun_riedel.grid
  in
  let solves = ref 0 and fallbacks = ref 0 and worst = ref 0.0 in
  List.iter
    (fun (name, grid) ->
      let nominal =
        oracle_nominal (Hashtbl.create 8) ~options:Sp.Dcop.default_options config grid ~states:8
      in
      let seed = Random.State.bits st in
      let singles = Array.of_list (Sp.Defects.single_defects grid) in
      let pick () = singles.(Random.State.int st (Array.length singles)) in
      let defective defects m =
        (Sp.Defects.build ~params:Sp.Defects.default_params ~defects grid
           ~stimulus:(Sp.Lattice_circuit.state_stimulus ~vdd m))
          .Sp.Lattice_circuit.netlist
      in
      let circuits =
        List.init 8 (fun i ->
            let at = die_at ~variation:default_variation ~seed grid i in
            (Printf.sprintf "die %d" i, fun m -> (at m).Sp.Lattice_circuit.netlist))
        @ List.init 10 (fun i ->
              let defects = if i < 8 then [ pick () ] else [ pick (); pick () ] in
              (Printf.sprintf "sample %d" i, defective defects))
      in
      List.iter
        (fun (label, at) ->
          let plan = Sp.Stamp_plan.compile (at 0) in
          for m = 0 to 7 do
            let net = at m in
            let what = Printf.sprintf "%s, %s, state %d" name label m in
            let seeded =
              match nominal.(m) with
              | Some (_, nom, xn) -> Sp.Dcop.solve_diag ~plan ~x0:(seed_x0 nom xn net) net
              | None -> Alcotest.failf "%s: nominal did not converge" what
            in
            incr solves;
            match (seeded, Sp.Dcop.solve_diag net) with
            | Ok (xs, ds), Ok (xu, _) ->
              if ds.Sp.Dcop.strategy <> Sp.Dcop.Plain then incr fallbacks;
              let gap = node_gap ~nnodes:(Sp.Netlist.num_nodes net) xs xu in
              worst := Float.max !worst gap;
              if gap > 2.0 then Alcotest.failf "%s: a node is %.3g tolerances away" what gap
            | Error _, Error _ -> ()
            | Ok _, Error _ | Error _, Ok _ -> Alcotest.failf "%s: one solve failed" what
          done)
        circuits)
    [ ("maj3 2x3", Lattice_synthesis.Library.maj3_2x3); ("xor3 4x4", xor3) ];
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d seeded solves left plain Newton (worst node %.3g)" !fallbacks !solves
       !worst)
    true (!fallbacks > 0)

let test_workspace_counts () =
  (* one cold batch-style op on maj3 2x3 — 100 dies, then a campaign
     over every defect class with 16 combos and repairs: 212 jobs. The
     yield run analyzes its nominal circuit once, factoring the matrix
     at x = 0 with it, and every die is that circuit with its models
     swapped, so its plan is instantiated from that analysis and its
     first factorization reuses the pivot order (every FET is off at
     x = 0, so a die's matrix there is the nominal's bit for bit). The
     campaign analyzes its nominal circuit too, but no sample shares its
     structure (every defect adds or replaces elements), so each of the
     100 samples and 12 repairs compiles one plan and runs one full
     factorization: 1 + 1 + 100 + 12 = 114 of each. A seeded solve
     takes its pivot order from its plan's analysis of the matrix at
     x = 0, so seeding adds no analysis. No two jobs of these seeds
     build the same circuit (a combo of two structural defects on one
     site would repeat its single), so every job misses and the counts
     hold at any domain count. *)
  let module M = Lattice_obs.Metrics in
  let was_on = M.on () in
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled was_on)
    (fun () ->
      let count name = M.Counter.get (M.counter name) in
      let compiles0 = count "spice.plan_compiles"
      and full0 = count "numerics.lu_full_factorizations"
      and solves0 = count "dcop.solves" in
      let engine = Engine.create ~domains:2 ~store_dir:"" () in
      let grid = Lattice_synthesis.Library.maj3_2x3 and target = Tt.majority_n 3 in
      ignore (Mc.run ~engine ~samples:100 ~seed:1 grid ~target);
      let options = { Fc.default_options with Fc.multi_defect_samples = 16; seed = 1 } in
      ignore (Fc.run ~engine ~options grid ~target);
      let t = Engine.telemetry engine in
      Alcotest.(check int) "jobs" 212 t.Engine.jobs;
      Alcotest.(check int) "plan analyses" 114 (count "spice.plan_compiles" - compiles0);
      Alcotest.(check int) "full factorizations" 114
        (count "numerics.lu_full_factorizations" - full0);
      Alcotest.(check int) "every miss solved once" t.Engine.dc_solves (count "dcop.solves" - solves0);
      Alcotest.(check bool) "7 solves or more per job" true (t.Engine.dc_solves >= 7 * 212))

let () =
  Alcotest.run "flow"
    [
      ( "monte_carlo",
        [
          Alcotest.test_case "nominal yield" `Slow test_mc_nominal_yield;
          Alcotest.test_case "zero variation" `Quick test_mc_zero_variation_is_nominal;
          Alcotest.test_case "extreme variation" `Slow test_mc_extreme_variation_kills_yield;
          Alcotest.test_case "deterministic seed" `Quick test_mc_deterministic_seed;
          Alcotest.test_case "bit-identical outcomes" `Quick test_mc_bit_identical;
          Alcotest.test_case "serial/parallel parity" `Slow test_mc_parallel_parity;
          Alcotest.test_case "prefix independence" `Quick test_mc_prefix_independence;
        ] );
      ( "fault_campaign",
        [
          Alcotest.test_case "XOR3 full universe" `Slow test_campaign_xor3_full_universe;
          Alcotest.test_case "6x6 lattice" `Slow test_campaign_6x6;
          Alcotest.test_case "non-convergent diagnostics" `Quick
            test_campaign_non_convergent_diagnostics;
          Alcotest.test_case "newton budget exhaustion" `Quick test_campaign_newton_budget;
          Alcotest.test_case "stuck-open detect/remap/re-verify" `Quick
            test_campaign_repair_stuck_open;
          Alcotest.test_case "serial/parallel parity" `Slow test_campaign_parallel_parity;
          Alcotest.test_case "cache re-run identity" `Quick test_campaign_cache_rerun;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "flows = per-state oracle" `Slow test_workspace_vs_per_state_oracle;
          Alcotest.test_case "dies share the nominal's analysis" `Quick test_workspace_counts;
          Alcotest.test_case "seeded die 87 = unseeded answer" `Quick test_seeded_die_87;
          Alcotest.test_case "seeded sweep = unseeded answers" `Quick test_seeded_sweep;
          Alcotest.test_case "circuit validation = per-state oracle" `Quick
            test_validate_circuit_vs_oracle;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "candidates are valid" `Quick test_candidates_valid;
          Alcotest.test_case "multiple candidates" `Quick test_candidates_distinct;
          Alcotest.test_case "estimate sanity" `Quick test_estimate_sanity;
          Alcotest.test_case "estimate scaling" `Quick test_estimate_scales_with_rows;
          Alcotest.test_case "ranking" `Quick test_optimize_ranking;
          Alcotest.test_case "spec bounds" `Quick test_optimize_spec_bounds;
          Alcotest.test_case "spice evaluation" `Slow test_optimize_spice_agrees_in_order;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
    ]
