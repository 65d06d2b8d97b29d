(* Fault-tolerance tests: cancellation tokens and solver deadlines,
   crash-isolated pool outcomes, the crash-safe persistent store (including
   deliberately corrupted entries), retry/backoff dispatch, the
   fault-injection campaign of ISSUE 7, and telemetry-reset pinning. *)

module Engine = Lattice_engine.Engine
module Pool = Lattice_engine.Pool
module Cache = Lattice_engine.Cache
module Store = Lattice_engine.Store
module Key = Lattice_engine.Key
module Cancel = Lattice_engine.Cancel
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

let build_netlist ?(m = 0) grid =
  let config = Sp.Lattice_circuit.default_config in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let stimulus v = Sp.Source.Dc (if (m lsr v) land 1 = 1 then vdd else 0.0) in
  (Sp.Lattice_circuit.build ~config grid ~stimulus).Sp.Lattice_circuit.netlist

(* --- cancellation tokens -------------------------------------------------- *)

let test_cancel_tokens () =
  Alcotest.(check bool) "none never fires" false (Cancel.is_cancelled Cancel.none);
  Cancel.cancel Cancel.none;
  Alcotest.(check bool) "none ignores cancel" false (Cancel.is_cancelled Cancel.none);
  let t = Cancel.create () in
  Alcotest.(check bool) "fresh token quiet" false (Cancel.is_cancelled t);
  Cancel.cancel t;
  (match Cancel.state t with
  | Some Cancel.Requested -> ()
  | _ -> Alcotest.fail "expected Requested after cancel");
  Alcotest.check_raises "check raises Requested" (Cancel.Cancelled Cancel.Requested)
    (fun () -> Cancel.check t);
  (* an already-expired deadline fires as Deadline *)
  let d = Cancel.with_deadline ~seconds:0.0 () in
  (match Cancel.state d with
  | Some Cancel.Deadline -> ()
  | _ -> Alcotest.fail "expected Deadline for a 0 s budget");
  (* a parent firing fires the child *)
  let parent = Cancel.create () in
  let child = Cancel.create ~parent () in
  Alcotest.(check bool) "child quiet" false (Cancel.is_cancelled child);
  Cancel.cancel parent;
  Alcotest.(check bool) "child fires with parent" true (Cancel.is_cancelled child);
  (* of_deadline_s: None passes the parent through, Some makes a deadline *)
  Alcotest.(check bool) "of_deadline_s None is none" true
    (Cancel.of_deadline_s None == Cancel.none);
  Alcotest.(check bool) "of_deadline_s Some 0 fires" true
    (Cancel.is_cancelled (Cancel.of_deadline_s (Some 0.0)))

let test_solver_deadline () =
  let netlist = build_netlist Lattice_synthesis.Library.maj3_2x3 in
  (* a healthy solve under no deadline *)
  (match Sp.Dcop.solve_diag netlist with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "maj3 should converge");
  (* an expired deadline aborts the whole ladder with Cancelled, not a
     convergence failure *)
  let cancel = Cancel.with_deadline ~seconds:0.0 () in
  Alcotest.check_raises "solve_diag honors the deadline"
    (Cancel.Cancelled Cancel.Deadline) (fun () ->
      ignore (Sp.Dcop.solve_diag ~cancel netlist));
  (* transient too *)
  Alcotest.check_raises "run_diag honors the deadline"
    (Cancel.Cancelled Cancel.Deadline) (fun () ->
      ignore
        (Sp.Transient.run_diag ~cancel netlist ~h:1e-9 ~t_stop:1e-8 ~record:[ "out" ] ()))

(* --- pool outcomes -------------------------------------------------------- *)

let outcome_label = function
  | Pool.Done _ -> "done"
  | Pool.Failed _ -> "failed"
  | Pool.Timed_out -> "timed-out"
  | Pool.Cancelled -> "cancelled"

let test_pool_outcomes () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      let out =
        Pool.map_outcomes pool ~n:20 (fun i ->
            if i mod 7 = 3 then failwith "boom"
            else if i = 11 then raise (Cancel.Cancelled Cancel.Deadline)
            else if i = 12 then raise (Cancel.Cancelled Cancel.Requested)
            else i * i)
      in
      Array.iteri
        (fun i o ->
          let expect =
            if i mod 7 = 3 then "failed"
            else if i = 11 then "timed-out"
            else if i = 12 then "cancelled"
            else "done"
          in
          Alcotest.(check string)
            (Printf.sprintf "job %d (%d domains)" i domains)
            expect (outcome_label o);
          match o with
          | Pool.Done v -> Alcotest.(check int) "value merged by index" (i * i) v
          | Pool.Failed e ->
            Alcotest.(check bool) "exception text captured" true
              (String.length e.Pool.printed > 0)
          | Pool.Timed_out | Pool.Cancelled -> ())
        out)
    [ 1; 2; 4 ]

let test_pool_batch_cancel () =
  (* a pre-fired batch token: nothing runs, every job is Cancelled *)
  let pool = Pool.create ~domains:2 () in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let ran = Atomic.make 0 in
  let out =
    Pool.map_outcomes pool ~cancel ~n:50 (fun i ->
        Atomic.incr ran;
        i)
  in
  Alcotest.(check int) "no job ran" 0 (Atomic.get ran);
  Alcotest.(check bool) "all cancelled" true
    (Array.for_all (function Pool.Cancelled -> true | _ -> false) out)

let test_chunked_parity () =
  (* the adaptive-chunk claimer must stay index-merged at awkward sizes *)
  Alcotest.(check int) "small batch: per-job claims" 1 (Pool.chunk_size ~domains:4 ~n:20);
  Alcotest.(check int) "large batch: amortized claims" 31 (Pool.chunk_size ~domains:4 ~n:1000);
  let f i = (i * 31) land 1023 in
  List.iter
    (fun n ->
      let expected = Array.init n f in
      List.iter
        (fun domains ->
          let pool = Pool.create ~domains () in
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d domains=%d" n domains)
            expected
            (Array.map
               (function Pool.Done v -> v | _ -> Alcotest.fail "job not done")
               (Pool.map_outcomes pool ~n f)))
        [ 1; 2; 4 ])
    [ 7; 64; 1000 ]

(* --- persistent store ----------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s : (string * float array) Store.t = Store.open_ ~dir in
  Alcotest.(check (option (pair string (array (float 0.0))))) "miss on empty" None
    (Store.find s ~key:"k1");
  Store.add s ~key:"k1" ("payload", [| 1.5; -2.25 |]);
  Alcotest.(check (option (pair string (array (float 0.0))))) "hit after add"
    (Some ("payload", [| 1.5; -2.25 |]))
    (Store.find s ~key:"k1");
  (* a second store over the same directory sees the entry (the
     cross-process warm-cache path) *)
  let s2 : (string * float array) Store.t = Store.open_ ~dir in
  Alcotest.(check (option (pair string (array (float 0.0))))) "fresh handle hits"
    (Some ("payload", [| 1.5; -2.25 |]))
    (Store.find s2 ~key:"k1");
  let st = Store.stats s in
  Alcotest.(check int) "one miss" 1 st.Store.misses;
  Alcotest.(check int) "one hit" 1 st.Store.hits;
  Alcotest.(check int) "one write" 1 st.Store.writes;
  Alcotest.(check int) "no corruption" 0 st.Store.corrupt

let corrupt_file path =
  let oc = open_out_bin path in
  output_string oc "FTLSTORE1\nnot the right key at all\ngarbage follows\n\xde\xad\xbe\xef";
  close_out oc

let test_store_corruption () =
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s : int Store.t = Store.open_ ~dir in
  Store.add s ~key:"victim" 42;
  Alcotest.(check (option int)) "entry readable" (Some 42) (Store.find s ~key:"victim");
  (* smash the entry file in place: header garbage *)
  corrupt_file (Store.entry_path s ~key:"victim");
  Alcotest.(check (option int)) "corrupt entry is a miss, not a crash" None
    (Store.find s ~key:"victim");
  Alcotest.(check bool) "corrupt file dropped" false
    (Sys.file_exists (Store.entry_path s ~key:"victim"));
  (* truncated payload: valid header, cut body *)
  Store.add s ~key:"victim" 42;
  let path = Store.entry_path s ~key:"victim" in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  Alcotest.(check (option int)) "truncated entry is a miss" None (Store.find s ~key:"victim");
  let st = Store.stats s in
  Alcotest.(check int) "both corruptions counted" 2 st.Store.corrupt;
  Alcotest.(check int) "no raw IO errors" 0 st.Store.errors;
  (* the slot heals on the next write *)
  Store.add s ~key:"victim" 43;
  Alcotest.(check (option int)) "healed" (Some 43) (Store.find s ~key:"victim")

let test_cache_spill_and_fallback () =
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s : int Store.t = Store.open_ ~dir in
  let mk () =
    Cache.create ~capacity:4
      ~fallback:(fun key -> Store.find s ~key)
      ~spill:(fun key v -> Store.add s ~key v)
      ()
  in
  let c = mk () in
  (* adds spill through; an eviction therefore loses nothing *)
  for i = 0 to 7 do
    Cache.add c ~key:(string_of_int i) (i * 10)
  done;
  let cs = Cache.stats c in
  Alcotest.(check int) "evictions happened" 4 cs.Cache.evictions;
  Alcotest.(check int) "every add spilled once" 8 (Store.stats s).Store.writes;
  (* evicted key 0 comes back via the fallback and is promoted *)
  Alcotest.(check (option int)) "evicted key restored from disk" (Some 0)
    (Cache.find c ~key:"0");
  Alcotest.(check int) "promotion does not re-spill" 8 (Store.stats s).Store.writes;
  (* duplicate add does not double-spill *)
  Cache.add c ~key:"0" 999;
  Alcotest.(check int) "first write wins, no re-spill" 8 (Store.stats s).Store.writes;
  (* a fresh (cold) cache over the same store starts warm *)
  let c2 = mk () in
  Alcotest.(check (option int)) "cold cache, warm store" (Some 70) (Cache.find c2 ~key:"7");
  Alcotest.(check int) "facade counts it as a hit" 1 (Cache.stats c2).Cache.hits

let test_store_hammering () =
  (* 4 domains hammering a tiny cache over one store, with one entry
     corrupted mid-flight: every lookup must come back correct, the only
     symptom a corruption count *)
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s : int Store.t = Store.open_ ~dir in
  let c =
    Cache.create ~capacity:3
      ~fallback:(fun key -> Store.find s ~key)
      ~spill:(fun key v -> Store.add s ~key v)
      ()
  in
  let keys = Array.init 16 string_of_int in
  Array.iteri (fun i key -> Cache.add c ~key (i * 100)) keys;
  corrupt_file (Store.entry_path s ~key:"5");
  let pool = Pool.create ~domains:4 () in
  let out =
    Pool.map_outcomes pool ~n:400 (fun i ->
        let k = i mod 16 in
        match Cache.find c ~key:keys.(k) with
        | Some v -> v
        | None ->
          (* the corrupted entry, evicted from memory: recompute and
             re-spill, exactly what the engine does on a miss *)
          let v = k * 100 in
          Cache.add c ~key:keys.(k) v;
          v)
  in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) (Printf.sprintf "lookup %d" i) (i mod 16 * 100) v
      | _ -> Alcotest.failf "lookup %d did not complete: %s" i (outcome_label o))
    out;
  Alcotest.(check bool) "at most one corruption seen" true ((Store.stats s).Store.corrupt <= 1)

(* --- engine: retry/backoff and fault injection ----------------------------- *)

let test_run_jobs_fault_injection () =
  (* the ISSUE 7 acceptance campaign: 200 jobs, injected worker
     exceptions, one stalled job exceeding its deadline, one corrupted
     persistent-cache entry — everything classified, nothing escapes *)
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let netlists = Array.init 8 (fun m -> build_netlist ~m grid) in
  (* seed the store, then corrupt one entry on disk *)
  let seeder = Engine.create ~domains:1 ~store_dir:dir () in
  Array.iter (fun nl -> ignore (Engine.dc_op seeder nl)) netlists;
  let seeded_writes = (Option.get (Engine.telemetry seeder).Engine.store).Store.writes in
  Alcotest.(check int) "store seeded" 8 seeded_writes;
  corrupt_file
    (let key = Key.dc_op netlists.(3) in
     match Engine.store_dir seeder with
     | Some d -> Store.entry_path (Store.open_ ~dir:d) ~key
     | None -> Alcotest.fail "store not wired");
  (* fresh engine, cold memory, warm-but-damaged disk *)
  let e = Engine.create ~domains:4 ~store_dir:dir () in
  let fail_always i = i mod 41 = 7 (* 7 48 89 130 171 *) in
  let fail_first i = i mod 53 = 11 (* 11 64 117 170 *) in
  let stalled = 100 in
  let policy = { Engine.deadline_s = Some 0.25; attempts = 2 } in
  let out =
    Engine.run_jobs e ~policy ~phase:"fault-injection" ~n:200
      (fun ~attempt ~cancel i ->
        if fail_always i then failwith (Printf.sprintf "injected crash %d" i)
        else if fail_first i && attempt = 0 then failwith "transient crash"
        else if i = stalled then
          (* a stall: never returns, only the deadline stops it *)
          let rec spin () =
            Cancel.check cancel;
            spin ()
          in
          spin ()
        else
          match Engine.dc_op e ~cancel netlists.(i mod 8) with
          | Ok (x, _) -> x.(0)
          | Error _ -> Alcotest.fail "maj3 state should converge")
  in
  Alcotest.(check int) "every job classified" 200 (Array.length out);
  let count p = Array.fold_left (fun a o -> if p o then a + 1 else a) 0 out in
  Alcotest.(check int) "crashing jobs Failed" 5
    (count (function Pool.Failed _ -> true | _ -> false));
  Alcotest.(check int) "stalled job Timed_out" 1
    (count (function Pool.Timed_out -> true | _ -> false));
  Alcotest.(check int) "the rest Done (transient crashes recovered)" 194
    (count (function Pool.Done _ -> true | _ -> false));
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Failed e when fail_always i ->
        Alcotest.(check bool) "crash text preserved" true
          (String.length e.Pool.printed > 0)
      | _ -> ())
    out;
  let t = Engine.telemetry e in
  (* retried: 5 permanent failures + 4 transient failures + 1 stall *)
  Alcotest.(check int) "retries counted" 10 t.Engine.retries;
  Alcotest.(check int) "timeouts are final outcomes" 1 t.Engine.timeouts;
  Alcotest.(check int) "failures are final outcomes" 5 t.Engine.job_failures;
  Alcotest.(check int) "job attempts counted" 210 t.Engine.jobs;
  (match t.Engine.store with
  | None -> Alcotest.fail "store telemetry missing"
  | Some st ->
    (* concurrent readers may each see the smashed file before the first
       detection deletes it: at least one, never zero, never a crash *)
    Alcotest.(check bool) "smashed entry detected corrupt" true (st.Store.corrupt >= 1));
  (* only the corrupted state needed re-solving; concurrent misses on
     that one key may duplicate the solve (benign, documented), so the
     count is 1..domains *)
  Alcotest.(check bool)
    (Printf.sprintf "re-solves behind the corruption bounded (%d)" t.Engine.dc_solves)
    true
    (t.Engine.dc_solves >= 1 && t.Engine.dc_solves <= 4)

let test_retryable_done () =
  (* Done values the caller deems retryable are re-run with the attempt
     number advancing — the campaign's escalating-budget hook *)
  let e = Engine.create ~domains:2 () in
  let out =
    Engine.run_jobs e ~policy:{ Engine.default_policy with attempts = 3 }
      ~retryable:(fun v -> v < 0) ~n:6
      (fun ~attempt ~cancel:_ i -> if i = 4 && attempt < 2 then -1 else (100 * i) + attempt)
  in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v ->
        let expect = if i = 4 then 402 else 100 * i in
        Alcotest.(check int) (Printf.sprintf "job %d settled" i) expect v
      | _ -> Alcotest.failf "job %d not Done" i)
    out;
  let t = Engine.telemetry e in
  Alcotest.(check int) "two escalations" 2 t.Engine.retries;
  Alcotest.(check int) "no failures" 0 t.Engine.job_failures

let test_deadline_escalation () =
  (* attempt k of a job runs under a token that fires d * 2^k after the
     job starts: a retried timeout gets twice the budget each time *)
  let e = Engine.create ~domains:2 () in
  let d = 10.0 and n = 4 in
  let budgets = Array.make_matrix n 3 Float.nan in
  let out =
    Engine.run_jobs e ~policy:{ Engine.deadline_s = Some d; attempts = 3 } ~n
      (fun ~attempt ~cancel i ->
        let start = Lattice_obs.Clock.now_ns () in
        (match Cancel.deadline_ns cancel with
        | Some t -> budgets.(i).(attempt) <- float_of_int (t - start) /. 1e9
        | None -> ());
        if attempt < 2 then failwith "retry me" else i)
  in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) (Printf.sprintf "job %d settled" i) i v
      | _ -> Alcotest.failf "job %d not Done" i)
    out;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun k got ->
          let want = d *. (2.0 ** float_of_int k) in
          Alcotest.(check bool)
            (Printf.sprintf "job %d attempt %d: token fires %.4f s after start, want %g s" i k got
               want)
            true
            (Float.abs (got -. want) <= 0.01 *. want))
        row)
    budgets

let test_run_jobs_batch_cancel () =
  let e = Engine.create ~domains:2 () in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let out =
    Engine.run_jobs e ~cancel ~policy:{ Engine.default_policy with attempts = 3 } ~n:10
      (fun ~attempt:_ ~cancel:_ i -> i)
  in
  Alcotest.(check bool) "all cancelled" true
    (Array.for_all (function Pool.Cancelled -> true | _ -> false) out);
  Alcotest.(check int) "cancelled jobs never retried" 0 (Engine.telemetry e).Engine.retries

let test_zero_job_batches () =
  (* an empty batch is an empty result at any pool width — no domain is
     spawned for it *)
  let module Fc = Lattice_flow.Fault_campaign in
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "%s (%d domains)" what domains in
      let pool = Pool.create ~domains () in
      Alcotest.(check int) (label "map_outcomes ~n:0") 0
        (Array.length (Pool.map_outcomes pool ~n:0 (fun i -> i)));
      let e = Engine.create ~domains () in
      Alcotest.(check int) (label "run_jobs ~n:0") 0
        (Array.length (Engine.run_jobs e ~n:0 (fun ~attempt:_ ~cancel:_ i -> i)));
      Alcotest.(check (array int)) (label "map ~n:0") [||] (Engine.map e ~n:0 (fun i -> i));
      let rep =
        Fc.run ~engine:e
          ~options:{ Fc.default_options with Fc.classes = [] }
          Lattice_synthesis.Library.maj3_2x3 ~target:(Lattice_boolfn.Truthtable.majority_n 3)
      in
      Alcotest.(check int) (label "empty campaign: no samples") 0 (Array.length rep.Fc.samples);
      Alcotest.(check int) (label "empty campaign: no repairs") 0 (List.length rep.Fc.repairs))
    [ 1; 2; 4 ]

(* --- telemetry reset pinning ----------------------------------------------- *)

let test_reset_telemetry_pins_new_counters () =
  let dir = temp_dir "ftl-store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let e = Engine.create ~domains:2 ~store_dir:dir () in
  let netlist = build_netlist Lattice_synthesis.Library.maj3_2x3 in
  ignore (Engine.dc_op e netlist);
  ignore (Engine.dc_op e netlist);
  ignore
    (Engine.run_jobs e
       ~policy:{ Engine.deadline_s = Some 0.05; attempts = 2 }
       ~n:4
       (fun ~attempt:_ ~cancel ->
         function
         | 0 -> failwith "boom"
         | 1 ->
           let rec spin () =
             Cancel.check cancel;
             spin ()
           in
           spin ()
         | i -> i));
  let t = Engine.telemetry e in
  Alcotest.(check bool) "retries accrued" true (t.Engine.retries > 0);
  Alcotest.(check int) "timeout accrued" 1 t.Engine.timeouts;
  Alcotest.(check int) "failure accrued" 1 t.Engine.job_failures;
  Alcotest.(check bool) "store writes accrued" true
    ((Option.get t.Engine.store).Store.writes > 0);
  Engine.reset_telemetry e;
  let z = Engine.telemetry e in
  Alcotest.(check int) "jobs zero" 0 z.Engine.jobs;
  Alcotest.(check int) "dc_solves zero" 0 z.Engine.dc_solves;
  Alcotest.(check int) "newton zero" 0 z.Engine.newton_total;
  Alcotest.(check int) "retries zero" 0 z.Engine.retries;
  Alcotest.(check int) "timeouts zero" 0 z.Engine.timeouts;
  Alcotest.(check int) "job_failures zero" 0 z.Engine.job_failures;
  Alcotest.(check int) "cache hits zero" 0 z.Engine.cache.Cache.hits;
  Alcotest.(check int) "cache misses zero" 0 z.Engine.cache.Cache.misses;
  (match z.Engine.store with
  | None -> Alcotest.fail "store telemetry lost by reset"
  | Some st ->
    Alcotest.(check int) "store hits zero" 0 st.Store.hits;
    Alcotest.(check int) "store misses zero" 0 st.Store.misses;
    Alcotest.(check int) "store writes zero" 0 st.Store.writes;
    Alcotest.(check int) "store corrupt zero" 0 st.Store.corrupt);
  Alcotest.(check (list (pair string (float 0.0)))) "phases zero" [] z.Engine.phases;
  (* contents survive: the old entry still hits without a re-solve *)
  ignore (Engine.dc_op e netlist);
  let w = Engine.telemetry e in
  Alcotest.(check int) "cache entry survived the reset" 1 w.Engine.cache.Cache.hits;
  Alcotest.(check int) "no re-solve" 0 w.Engine.dc_solves

(* --- flow-level classification --------------------------------------------- *)

let test_campaign_deadline_classified () =
  (* an unmeetable per-job deadline turns every sample into a classified
     Non_convergent ("deadline exceeded") — the campaign still reports
     every sample and raises nothing *)
  let module Fc = Lattice_flow.Fault_campaign in
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let target = Lattice_boolfn.Truthtable.majority_n 3 in
  let e = Engine.create ~domains:2 () in
  let policy = { Engine.deadline_s = Some 1e-9; attempts = 1 } in
  let rep =
    Fc.run ~engine:e ~policy
      ~options:{ Fc.default_options with Fc.attempt_repair = false }
      grid ~target
  in
  Alcotest.(check bool) "samples reported" true (Array.length rep.Fc.samples > 0);
  Alcotest.(check int) "every sample classified non-convergent"
    (Array.length rep.Fc.samples) rep.Fc.counts.Fc.non_convergent;
  Array.iter
    (fun s ->
      match s.Fc.failure with
      | Some f ->
        Alcotest.(check string) "reason recorded" "deadline exceeded" f.Sp.Dcop.message
      | None -> Alcotest.fail "non-convergent sample without failure record")
    rep.Fc.samples;
  Alcotest.(check int) "timeouts counted" (Array.length rep.Fc.samples)
    (Engine.telemetry e).Engine.timeouts

let test_campaign_budget_escalation () =
  (* newton_per_sample = 1 with 3 attempts: attempt k runs under a budget
     of ceil (1 * 2^k) iterations, so every sample ends on the third
     attempt's budget of 4 (no maj3 sample solves all 8 states in 4) *)
  let module Fc = Lattice_flow.Fault_campaign in
  let e = Engine.create ~domains:2 () in
  let rep =
    Fc.run ~engine:e
      ~policy:{ Engine.default_policy with attempts = 3 }
      ~options:
        {
          Fc.default_options with
          Fc.classes = [ Sp.Defects.Opens ];
          attempt_repair = false;
          budget = { Fc.newton_per_sample = 1 };
        }
      Lattice_synthesis.Library.maj3_2x3 ~target:(Lattice_boolfn.Truthtable.majority_n 3)
  in
  let n = Array.length rep.Fc.samples in
  Alcotest.(check bool) "samples reported" true (n > 0);
  Alcotest.(check int) "every sample non-convergent" n rep.Fc.counts.Fc.non_convergent;
  Array.iter
    (fun s ->
      match s.Fc.failure with
      | None -> Alcotest.fail "non-convergent sample without failure record"
      | Some f ->
        Scanf.sscanf f.Sp.Dcop.message "Newton budget exhausted (%d/%d iterations) before input state %d"
          (fun used cap _ ->
            Alcotest.(check int) ("final budget of " ^ f.Sp.Dcop.message) 4 cap;
            Alcotest.(check bool) "budget spent" true (used >= cap)))
    rep.Fc.samples;
  Alcotest.(check int) "two retries per sample" (2 * n) (Engine.telemetry e).Engine.retries

let test_monte_carlo_fault_scoring () =
  (* yield analysis under an unmeetable deadline: dies score as failed,
     the run completes *)
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let target = Lattice_boolfn.Truthtable.majority_n 3 in
  let e = Engine.create ~domains:2 () in
  let policy = { Engine.deadline_s = Some 1e-9; attempts = 1 } in
  let mc = Lattice_flow.Monte_carlo.run ~engine:e ~policy ~samples:8 grid ~target in
  Alcotest.(check (float 0.0)) "zero yield, zero exceptions" 0.0 mc.Lattice_flow.Monte_carlo.yield;
  Alcotest.(check int) "all dies scored" 8 (Array.length mc.Lattice_flow.Monte_carlo.outcomes)

let test_fired_token_skips_repairs () =
  (* a batch token that has already fired stops the repairs too: every
     sample is classified "cancelled" and nothing is remapped or solved *)
  let module Fc = Lattice_flow.Fault_campaign in
  let e = Engine.create ~domains:1 () in
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let rep =
    Fc.run ~engine:e ~cancel
      ~options:{ Fc.default_options with Fc.attempt_repair = true }
      Lattice_synthesis.Library.maj3_2x3 ~target:(Lattice_boolfn.Truthtable.majority_n 3)
  in
  Alcotest.(check bool) "samples reported" true (Array.length rep.Fc.samples > 0);
  Array.iter
    (fun s ->
      match s.Fc.failure with
      | Some f -> Alcotest.(check string) "sample cancelled" "cancelled" f.Sp.Dcop.message
      | None -> Alcotest.fail "cancelled sample without failure record")
    rep.Fc.samples;
  Alcotest.(check int) "no repairs" 0 (List.length rep.Fc.repairs);
  Alcotest.(check int) "no dc solves" 0 (Engine.telemetry e).Engine.dc_solves

let test_flight_ring_flow_spans () =
  (* with tracing off, the always-on flight ring still holds each flow's
     phase span, so a flight dump shows which flow was running *)
  let module Trace = Lattice_obs.Trace in
  let module Ring = Lattice_obs.Ring in
  let module Fc = Lattice_flow.Fault_campaign in
  let trace_was_on = Trace.on () and ring_was_on = Ring.on () in
  Trace.set_enabled false;
  Ring.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled trace_was_on;
      Ring.set_enabled ring_was_on;
      Ring.reset ())
  @@ fun () ->
  let grid = Lattice_synthesis.Library.maj3_2x3 in
  let target = Lattice_boolfn.Truthtable.majority_n 3 in
  let has_span name =
    let needle = Printf.sprintf "\"name\":\"%s\"" name in
    let dump = Ring.dump_jsonl () in
    let n = String.length needle in
    let rec scan i = i + n <= String.length dump && (String.sub dump i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun (label, engine) ->
      Ring.reset ();
      ignore (Lattice_flow.Monte_carlo.run ?engine ~samples:2 grid ~target);
      Alcotest.(check bool) (label ^ ": monte-carlo span in the ring") true
        (has_span "monte-carlo");
      Ring.reset ();
      ignore
        (Fc.run ?engine
           ~options:{ Fc.default_options with Fc.classes = [ Sp.Defects.Opens ]; attempt_repair = false }
           grid ~target);
      Alcotest.(check bool) (label ^ ": fault-campaign span in the ring") true
        (has_span "fault-campaign"))
    [ ("default engine", None); ("2-domain engine", Some (Engine.create ~domains:2 ())) ]

(* --- soak ------------------------------------------------------------------ *)

let test_soak_steady_memory () =
  (* thousands of mixed jobs through the retrying dispatcher: memory must
     reach a steady state (no leak proportional to job count) and every
     job must classify. Tracing accumulates events by design, so it is
     suspended for the duration — its buffer is not a leak. *)
  let trace_was_on = Lattice_obs.Trace.on () in
  Lattice_obs.Trace.set_enabled false;
  Fun.protect ~finally:(fun () -> Lattice_obs.Trace.set_enabled trace_was_on) @@ fun () ->
  let e = Engine.create ~domains:4 () in
  let round r =
    let out =
      Engine.run_jobs e
        ~policy:{ Engine.default_policy with attempts = 2 }
        ~n:400
        (fun ~attempt ~cancel:_ i ->
          if i mod 97 = 13 && attempt = 0 then failwith "flaky"
          else if i mod 119 = 17 then raise (Cancel.Cancelled Cancel.Deadline)
          else Array.make 64 (float_of_int (i + r)))
    in
    Alcotest.(check int) "all classified" 400 (Array.length out);
    Array.iter
      (function
        | Pool.Done _ | Pool.Timed_out -> ()
        | Pool.Failed e -> Alcotest.failf "unexpected failure: %s" e.Pool.printed
        | Pool.Cancelled -> Alcotest.fail "unexpected cancellation")
      out
  in
  (* warm up, then measure live words across the remaining rounds *)
  round 0;
  round 1;
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  for r = 2 to 11 do
    round r
  done;
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let growth = float_of_int (live1 - live0) /. float_of_int live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live heap steady after 4000 jobs (growth %.1f%%)" (100.0 *. growth))
    true
    (growth < 0.5)

let () =
  Alcotest.run "resilience"
    [
      ( "cancel",
        [
          Alcotest.test_case "tokens, deadlines, parents" `Quick test_cancel_tokens;
          Alcotest.test_case "solver deadlines" `Quick test_solver_deadline;
        ] );
      ( "pool",
        [
          Alcotest.test_case "outcome classification" `Quick test_pool_outcomes;
          Alcotest.test_case "batch cancel" `Quick test_pool_batch_cancel;
          Alcotest.test_case "chunked claiming parity" `Quick test_chunked_parity;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + cross-handle reads" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption detected, never raised" `Quick test_store_corruption;
          Alcotest.test_case "cache spill + fallback" `Quick test_cache_spill_and_fallback;
          Alcotest.test_case "4-domain hammering with a corrupt entry" `Quick
            test_store_hammering;
        ] );
      ( "engine",
        [
          Alcotest.test_case "200-job fault-injection campaign" `Quick
            test_run_jobs_fault_injection;
          Alcotest.test_case "retryable Done escalation" `Quick test_retryable_done;
          Alcotest.test_case "deadline doubles per attempt" `Quick test_deadline_escalation;
          Alcotest.test_case "batch cancel skips retries" `Quick test_run_jobs_batch_cancel;
          Alcotest.test_case "zero-job batches" `Quick test_zero_job_batches;
          Alcotest.test_case "reset_telemetry pins every counter" `Quick
            test_reset_telemetry_pins_new_counters;
        ] );
      ( "flow",
        [
          Alcotest.test_case "campaign classifies deadlines" `Quick
            test_campaign_deadline_classified;
          Alcotest.test_case "newton budget doubles per attempt" `Quick
            test_campaign_budget_escalation;
          Alcotest.test_case "monte-carlo scores faulted dies" `Quick
            test_monte_carlo_fault_scoring;
          Alcotest.test_case "fired token skips repairs" `Quick test_fired_token_skips_repairs;
          Alcotest.test_case "flight ring keeps flow spans" `Quick test_flight_ring_flow_spans;
        ] );
      ( "soak",
        [ Alcotest.test_case "steady memory over 4800 jobs" `Quick test_soak_steady_memory ] );
    ]
