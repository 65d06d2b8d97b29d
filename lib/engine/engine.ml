module Sp = Lattice_spice
module Trace = Lattice_obs.Trace
module Metrics = Lattice_obs.Metrics
module Clock = Lattice_obs.Clock
module Scope = Metrics.Scope
module Cancel = Sp.Cancel

type dc_result =
  (Lattice_numerics.Vec.t * Sp.Dcop.diagnostics, Sp.Dcop.failure) result

type t = {
  pool : Pool.t;
  dc_cache : dc_result Cache.t;
  store : dc_result Store.t option;
  store_dir : string option;
  scope : Scope.t;
  jobs : Scope.counter;
  dc_solves : Scope.counter;
  newton : Scope.counter;
  newton_failed : Scope.counter;
  retries : Scope.counter;
  timeouts : Scope.counter;
  job_failures : Scope.counter;
  phase_lock : Mutex.t;
  mutable phases : (string * float) list;  (* reversed first-use order *)
}

let env_store_dir () =
  match Sys.getenv_opt "FTL_CACHE_DIR" with
  | None | Some "" -> None
  | Some dir -> Some dir

let create ?domains ?store_dir () =
  let store_dir =
    match store_dir with
    | Some "" -> None  (* explicit empty string disables the store *)
    | Some _ as dir -> dir
    | None -> env_store_dir ()
  in
  (* entries live under a subdirectory named for the key version, so a
     key change starts a fresh tree and the old one can be removed whole *)
  let store = Option.map (fun dir -> Store.open_ ~dir:(Filename.concat dir Key.version)) store_dir in
  let dc_cache =
    match store with
    | None -> Cache.create ()
    | Some s ->
      Cache.create ~fallback:(fun key -> Store.find s ~key) ~spill:(fun key v -> Store.add s ~key v) ()
  in
  let scope = Scope.create ~registry:"engine" () in
  let counter ?request = Scope.counter ?request scope in
  {
    pool = Pool.create ?domains ();
    dc_cache;
    store;
    store_dir;
    scope;
    jobs = counter "jobs";
    dc_solves = counter ~request:"dc_solves" "dc_solves";
    newton = counter "newton_iterations";
    newton_failed = counter "newton_failed_rungs";
    retries = counter ~request:"retries" "retries";
    timeouts = counter "timeouts";
    job_failures = counter "job_failures";
    phase_lock = Mutex.create ();
    phases = [];
  }

let or_fresh = function Some e -> e | None -> create ~domains:1 ~store_dir:"" ()

let domains (t : t) = Pool.domains t.pool
let store_dir (t : t) = t.store_dir

(* Seed-splitting: the stream is a function of (seed, index) alone. The
   third word decorrelates streams whose (seed, index) pairs collide
   additively (Random.State.make hashes the words sequentially). *)
let sample_rng ~seed ~index =
  Random.State.make [| seed; index; Hashtbl.hash (seed, index, 0x51ce5) |]

let add_phase t phase dt =
  Mutex.lock t.phase_lock;
  (if List.mem_assoc phase t.phases then
     t.phases <-
       List.map (fun (p, s) -> if p = phase then (p, s +. dt) else (p, s)) t.phases
   else t.phases <- (phase, dt) :: t.phases);
  Mutex.unlock t.phase_lock

(* the phase span opens whenever anything records it — the always-on
   flight ring included — so every flow phase reaches a flight dump *)
let timed t ~phase f =
  let t0 = Clock.now_ns () in
  let sp = Trace.begin_span ~cat:"engine" phase in
  Fun.protect
    ~finally:(fun () ->
      Trace.end_span sp;
      add_phase t phase (Clock.ns_to_s (Clock.now_ns () - t0)))
    f

let traced_job ?phase f =
  if Trace.on () then (
    let name = match phase with Some p -> p ^ ".job" | None -> "job" in
    fun i ->
      Trace.with_span ~cat:"engine" ~args:[ ("index", string_of_int i) ] name (fun () -> f i))
  else f

type job_policy = { deadline_s : float option; attempts : int }

let default_policy = { deadline_s = None; attempts = 1 }
let backoff = 2.0

let run_jobs (type a) t ?(policy = default_policy) ?(cancel = Cancel.none) ?phase
    ?(retryable = fun (_ : a) -> false) ~n (f : attempt:int -> cancel:Cancel.t -> int -> a) =
  if policy.attempts < 1 then invalid_arg "Engine.run_jobs: attempts must be >= 1";
  if n < 0 then invalid_arg "Engine.run_jobs: negative n";
  let out : a Pool.outcome array = Array.make n Pool.Cancelled in
  (* one dispatch wave: run [f] over the given original-index set,
     each job under its own deadline token (grown by backoff per
     attempt), and scatter the outcomes back by original index *)
  let dispatch ~attempt indices =
    let m = Array.length indices in
    Scope.add t.jobs m;
    let job k =
      let idx = indices.(k) in
      let job_cancel =
        match policy.deadline_s with
        | None -> cancel
        | Some d ->
          let seconds = d *. (backoff ** float_of_int attempt) in
          Cancel.with_deadline ~parent:cancel ~seconds ()
      in
      f ~attempt ~cancel:job_cancel idx
    in
    let job = traced_job ?phase job in
    let wave = Pool.map_outcomes t.pool ~cancel ~n:m job in
    Array.iteri (fun k o -> out.(indices.(k)) <- o) wave
  in
  let wants_retry = function
    | Pool.Failed _ -> true
    | Pool.Timed_out ->
      (* without a per-job deadline there is no bigger budget to grant *)
      policy.deadline_s <> None
    | Pool.Done v -> retryable v
    | Pool.Cancelled -> false
  in
  let run () =
    dispatch ~attempt:0 (Array.init n Fun.id);
    let attempt = ref 1 in
    let draining = ref (policy.attempts > 1) in
    while !draining do
      if !attempt >= policy.attempts || Cancel.is_cancelled cancel then draining := false
      else begin
        let again = ref [] in
        for i = n - 1 downto 0 do
          if wants_retry out.(i) then again := i :: !again
        done;
        match !again with
        | [] -> draining := false
        | indices ->
          let indices = Array.of_list indices in
          Scope.add t.retries (Array.length indices);
          if Trace.on () then
            Trace.instant ~cat:"engine"
              ~args:
                [
                  ("attempt", string_of_int !attempt);
                  ("jobs", string_of_int (Array.length indices));
                ]
              "engine.retry";
          dispatch ~attempt:!attempt indices;
          incr attempt
      end
    done;
    (* final-outcome accounting: a job that timed out on attempt 0 but
       succeeded on a retry is not a timeout *)
    let timeouts = ref 0 and failures = ref 0 in
    Array.iter
      (function
        | Pool.Timed_out -> incr timeouts
        | Pool.Failed _ -> incr failures
        | Pool.Done _ | Pool.Cancelled -> ())
      out;
    Scope.add t.timeouts !timeouts;
    Scope.add t.job_failures !failures;
    out
  in
  match phase with None -> run () | Some phase -> timed t ~phase run

let map t ?phase ~n f =
  run_jobs t ?phase ~n (fun ~attempt:_ ~cancel:_ i -> f i)
  |> Array.map (function
       | Pool.Done v -> v
       | Pool.Failed e -> failwith e.Pool.printed
       | Pool.Timed_out -> raise (Cancel.Cancelled Cancel.Deadline)
       | Pool.Cancelled -> raise (Cancel.Cancelled Cancel.Requested))

(* cache and store entries hold solutions in the netlist's canonical
   (first-mention) node order: netlists that share a key may number
   their nodes differently, as a built circuit and its deck round trip
   do *)
let map_solution f = function
  | Ok (x, diag) -> Ok (f x, diag)
  | Error _ as e -> e

(* the Newton iterations a solve spent, and those of them spent in rungs
   that failed: every attempt but the winner, which is the last *)
let solve_iterations r =
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 in
  match r with
  | Ok (_, (d : Sp.Dcop.diagnostics)) ->
    let failed = match List.rev d.Sp.Dcop.attempts with _ :: rest -> sum rest | [] -> 0 in
    (d.Sp.Dcop.newton_iterations, failed)
  | Error (f : Sp.Dcop.failure) ->
    let k = sum f.Sp.Dcop.attempts in
    (k, k)

type workspace = { mutable plan : Sp.Stamp_plan.t option }

let workspace () = { plan = None }

(* the workspace's plan, compiled from the first netlist that misses *)
let plan_of ws netlist =
  match ws.plan with
  | Some p -> p
  | None ->
    let p = Sp.Stamp_plan.compile netlist in
    ws.plan <- Some p;
    p

(* a cache hit as the caller gets it, in its node order *)
let hit netlist r = map_solution (Sp.Netlist.of_canonical_order netlist) r

(* [x0] is built only when the solve runs *)
let solve t ~options ?cancel ?workspace ?x0 ~key netlist =
  match Cache.find t.dc_cache ~key with
  | Some r -> hit netlist r
  | None ->
    let plan = Option.map (fun ws -> plan_of ws netlist) workspace in
    let x0 = Option.map (fun f -> f ()) x0 in
    (* a cancelled solve raises out of [solve_diag] before any of the
       bookkeeping below — partial results are never cached *)
    let r = Sp.Dcop.solve_diag ~options ?plan ?x0 ?cancel netlist in
    let all, failed = solve_iterations r in
    Scope.incr t.dc_solves;
    Scope.add t.newton all;
    Scope.add t.newton_failed failed;
    Cache.add t.dc_cache ~key (map_solution (Sp.Netlist.to_canonical_order netlist) r);
    r

let dc_op t ?(options = Sp.Dcop.default_options) ?cancel ?workspace netlist =
  solve t ~options ?cancel ?workspace ~key:(Key.dc_op ~options netlist) netlist

let resident_dc_op t ?(options = Sp.Dcop.default_options) netlist =
  Option.map (hit netlist) (Cache.find_resident t.dc_cache ~key:(Key.dc_op ~options netlist))

let state_netlist (lc : Sp.Lattice_circuit.t) =
  let stimulus =
    Sp.Lattice_circuit.state_stimulus ~vdd:lc.Sp.Lattice_circuit.config.Sp.Lattice_circuit.vdd
  in
  fun m -> (Sp.Lattice_circuit.rebind lc ~stimulus:(stimulus m)).Sp.Lattice_circuit.netlist

type seeds = {
  nominal : Sp.Netlist.t;  (* names the rows of the solutions *)
  branches : (string, int) Hashtbl.t;  (* voltage-source name -> branch row *)
  at_state : (string * Lattice_numerics.Vec.t) option array;  (* key, solution *)
}

let nominal_seeds t ?(options = Sp.Dcop.default_options) ~cancel lc ~states =
  let at = state_netlist lc in
  let workspace = workspace () in
  let at_state = Array.make states None in
  (try
     for m = 0 to states - 1 do
       if Cancel.is_cancelled cancel then raise Exit;
       let netlist = at m in
       let key = Key.dc_op ~options netlist in
       match solve t ~options ~cancel ~workspace ~key netlist with
       | Ok (x, _) -> at_state.(m) <- Some (key, x)
       | Error _ -> ()
     done
   with Exit | Cancel.Cancelled _ -> ());
  let nominal = lc.Sp.Lattice_circuit.netlist in
  let branches = Hashtbl.create 8 in
  List.iter
    (function
      | Sp.Netlist.Vsource { name; index; _ } ->
        Hashtbl.replace branches name (Sp.Netlist.vsource_row nominal index)
      | Sp.Netlist.Resistor _ | Sp.Netlist.Capacitor _ | Sp.Netlist.Isource _ | Sp.Netlist.Mosfet _ -> ())
    (Sp.Netlist.elements nominal);
  { nominal; branches; at_state }

(* for each MNA row of [netlist], the row of the nominal solution that
   holds the node or source branch of the same name, or -1: a node the
   nominal circuit lacks (a broken terminal's) starts at 0 V *)
let seed_rows seeds netlist =
  let rows = Array.make (Sp.Netlist.unknowns netlist) (-1) in
  Array.iteri
    (fun i name ->
      Option.iter
        (fun n -> rows.(i) <- Sp.Netlist.node_index n)
        (Sp.Netlist.find_node seeds.nominal name))
    (Sp.Netlist.all_node_names netlist);
  List.iter
    (function
      | Sp.Netlist.Vsource { name; index; _ } ->
        Option.iter
          (fun row -> rows.(Sp.Netlist.vsource_row netlist index) <- row)
          (Hashtbl.find_opt seeds.branches name)
      | Sp.Netlist.Resistor _ | Sp.Netlist.Capacitor _ | Sp.Netlist.Isource _ | Sp.Netlist.Mosfet _ -> ())
    (Sp.Netlist.elements netlist);
  rows

let lattice_output t ?(options = Sp.Dcop.default_options) ?seeds (lc : Sp.Lattice_circuit.t) =
  let at = state_netlist lc in
  let out = Sp.Netlist.node lc.Sp.Lattice_circuit.netlist lc.Sp.Lattice_circuit.output_node in
  let workspace = workspace () in
  let seed =
    match seeds with
    | None -> fun _ -> None
    | Some s ->
      let rows = seed_rows s lc.Sp.Lattice_circuit.netlist in
      fun m ->
        if m >= Array.length s.at_state then None
        else
          Option.map
            (fun (key, x) -> (key, fun () -> Array.map (fun r -> if r < 0 then 0.0 else x.(r)) rows))
            s.at_state.(m)
  in
  fun ~cancel m ->
    let netlist = at m in
    (match seed m with
    | None -> solve t ~options ~cancel ~workspace ~key:(Key.dc_op ~options netlist) netlist
    | Some (seed, x0) ->
      solve t ~options ~cancel ~workspace ~x0 ~key:(Key.dc_op ~options ~seed netlist) netlist)
    |> Result.map (fun (x, diag) -> (Sp.Mna.voltage x out, diag))

type telemetry = {
  domains : int;
  jobs : int;
  dc_solves : int;
  cache : Cache.stats;
  store : Store.stats option;
  newton_total : int;
  newton_failed_rungs : int;
  retries : int;
  timeouts : int;
  job_failures : int;
  phases : (string * float) list;
}

let telemetry (t : t) =
  Mutex.lock t.phase_lock;
  let phases = List.rev t.phases in
  Mutex.unlock t.phase_lock;
  {
    domains = domains t;
    jobs = Scope.get t.jobs;
    dc_solves = Scope.get t.dc_solves;
    cache = Cache.stats t.dc_cache;
    store = Option.map Store.stats t.store;
    newton_total = Scope.get t.newton;
    newton_failed_rungs = Scope.get t.newton_failed;
    retries = Scope.get t.retries;
    timeouts = Scope.get t.timeouts;
    job_failures = Scope.get t.job_failures;
    phases;
  }

let counters (t : t) =
  Scope.snapshot t.scope @ Cache.counters t.dc_cache
  @ match t.store with None -> [] | Some s -> Store.counters s

let summary (t : t) =
  let tel = telemetry t in
  let lookups = tel.cache.Cache.hits + tel.cache.Cache.misses in
  let hit_pct =
    if lookups = 0 then 0.0
    else 100.0 *. float_of_int tel.cache.Cache.hits /. float_of_int lookups
  in
  let store =
    match tel.store with
    | None -> ""
    | Some s ->
      Printf.sprintf " | store %d/%d hits, %d writes, %d corrupt"
        s.Store.hits
        (s.Store.hits + s.Store.misses)
        s.Store.writes s.Store.corrupt
  in
  let faults =
    if tel.retries = 0 && tel.timeouts = 0 && tel.job_failures = 0 then ""
    else
      Printf.sprintf " | %d retries, %d timeouts, %d failures" tel.retries tel.timeouts
        tel.job_failures
  in
  let phases =
    match tel.phases with
    | [] -> ""
    | ps ->
      " | "
      ^ String.concat ", "
          (List.map (fun (p, s) -> Printf.sprintf "%s %.2fs" p s) ps)
  in
  Printf.sprintf
    "engine: %d domain%s | %d jobs | %d dc solves, cache %d/%d hits (%.1f%%), %d evictions%s | %d newton iters (%d in failed rungs)%s%s"
    tel.domains
    (if tel.domains = 1 then "" else "s")
    tel.jobs tel.dc_solves tel.cache.Cache.hits lookups hit_pct
    tel.cache.Cache.evictions store tel.newton_total tel.newton_failed_rungs faults phases
