(* Tests for the observability layer: span recording and parentage,
   zero-cost disabled paths, Domain-safe buffers, the metrics registry
   with its log-scale histograms, probes, and the exporters. *)

module Trace = Lattice_obs.Trace
module Metrics = Lattice_obs.Metrics
module Probe = Lattice_obs.Probe
module Export = Lattice_obs.Export
module Ring = Lattice_obs.Ring
module Rolling = Lattice_obs.Rolling
module Spool = Lattice_obs.Spool
module Json = Lattice_obs.Json

(* a string carrying the bytes a JSON writer must escape, and some it
   must pass through *)
let nasty = "q\"b\\s\bf\012c\x01\x1fn\nd\x7fu\xc3\xa9x\xff"

let parse_line l =
  match Json.parse l with
  | exception Json.Parse_error m -> Alcotest.failf "%s: %S" m l
  | j -> j

let lines_of s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
let field k j = Option.get (Json.member k j)

(* Every test owns the global flags: start from a known state and leave
   everything disabled and empty (the suite may run under FTL_TRACE=1;
   the flight ring is on by default, so it is parked off here and ring
   tests enable it themselves). *)
let isolated f () =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  Ring.set_enabled false;
  Trace.reset ();
  Metrics.reset ();
  Ring.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      Ring.set_enabled false;
      Trace.reset ();
      Metrics.reset ();
      Ring.reset ())
    f

(* --- trace ---------------------------------------------------------------- *)

let test_disabled_records_nothing () =
  let sp = Trace.begin_span ~args:[ ("k", "v") ] "quiet" in
  Alcotest.(check int) "null token" Trace.null sp;
  Trace.end_span sp;
  Trace.instant "nothing";
  Trace.with_span "also quiet" (fun () -> ());
  Trace.complete ~name:"leaf" ~t0_ns:0 ~t1_ns:10 ();
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

let test_span_nesting () =
  Trace.set_enabled true;
  let outer = Trace.begin_span ~cat:"t" "outer" in
  let inner = Trace.begin_span "inner" in
  Trace.complete ~name:"leaf" ~t0_ns:(Lattice_obs.Clock.now_ns ())
    ~t1_ns:(Lattice_obs.Clock.now_ns ()) ();
  Trace.instant ~args:[ ("why", "test") ] "ping";
  Trace.end_span inner;
  Trace.end_span outer;
  Trace.set_enabled false;
  let evs = Trace.events () in
  Alcotest.(check int) "four events" 4 (List.length evs);
  let find name = List.find (fun (e : Trace.event) -> e.Trace.name = name) evs in
  let outer_e = find "outer" and inner_e = find "inner" in
  let leaf_e = find "leaf" and ping_e = find "ping" in
  Alcotest.(check int) "outer is a root" (-1) outer_e.Trace.parent;
  Alcotest.(check int) "inner under outer" outer_e.Trace.id inner_e.Trace.parent;
  Alcotest.(check int) "completed leaf under inner" inner_e.Trace.id leaf_e.Trace.parent;
  Alcotest.(check int) "instant under inner" inner_e.Trace.id ping_e.Trace.parent;
  Alcotest.(check bool) "outer closed" true (outer_e.Trace.dur_ns >= 0);
  Alcotest.(check bool) "outer covers inner" true
    (outer_e.Trace.dur_ns >= inner_e.Trace.dur_ns);
  Alcotest.(check (list (pair string string))) "instant args kept"
    [ ("why", "test") ] ping_e.Trace.args;
  Alcotest.(check string) "category recorded" "t" outer_e.Trace.cat

let test_exception_closes_spans () =
  Trace.set_enabled true;
  (try
     Trace.with_span "guarded" (fun () ->
         let _abandoned = Trace.begin_span "abandoned" in
         failwith "boom")
   with Failure _ -> ());
  Trace.set_enabled false;
  let evs = Trace.events () in
  Alcotest.(check int) "both spans recorded" 2 (List.length evs);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) (e.Trace.name ^ " closed") true (e.Trace.dur_ns >= 0))
    evs

(* Two systhreads on one domain (as the daemon's readers and workers
   are) each open 20 outer spans, each wrapping five 1 ms inner spans
   and a 2 ms sleep; every sleep hands the domain to the other thread.
   A span must nest under, and close, only spans of its own thread: no
   outer span is cut short in the flight ring, and with tracing on no
   inner span names the other thread's span as its parent. *)
let two_threads_interleave () =
  let work who () =
    for _ = 1 to 20 do
      Trace.with_span (who ^ ".outer") (fun () ->
          for _ = 1 to 5 do
            Trace.with_span (who ^ ".inner") (fun () -> Thread.delay 0.001)
          done;
          Thread.delay 0.002)
    done
  in
  let a = Thread.create (work "a") () and b = Thread.create (work "b") () in
  Thread.join a;
  Thread.join b

let test_threads_nest_apart () =
  Ring.set_enabled true;
  two_threads_interleave ();
  Ring.set_enabled false;
  let outer =
    List.filter
      (fun (s : Ring.span) -> String.ends_with ~suffix:".outer" s.Ring.name)
      (Ring.dump ())
  in
  Alcotest.(check int) "40 outer spans in the ring" 40 (List.length outer);
  let truncated = List.filter (fun (s : Ring.span) -> s.Ring.dur_ns < 7_000_000) outer in
  Alcotest.(check int) "no outer span shorter than the 7 ms it encloses" 0 (List.length truncated);
  Trace.set_enabled true;
  two_threads_interleave ();
  Trace.set_enabled false;
  let evs = Trace.events () in
  let owner (e : Trace.event) = String.sub e.Trace.name 0 1 in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (e : Trace.event) -> Hashtbl.replace by_id e.Trace.id e) evs;
  let inner = List.filter (fun (e : Trace.event) -> String.ends_with ~suffix:".inner" e.Trace.name) evs in
  Alcotest.(check int) "200 inner spans traced" 200 (List.length inner);
  let stray =
    List.filter
      (fun (e : Trace.event) ->
        match Hashtbl.find_opt by_id e.Trace.parent with
        | Some p -> p.Trace.name <> owner e ^ ".outer"
        | None -> true)
      inner
  in
  Alcotest.(check int) "every inner span under its own thread's outer span" 0 (List.length stray)

let test_multi_domain_buffers () =
  Trace.set_enabled true;
  Trace.with_span "main-side" (fun () -> ());
  let worker () = Trace.with_span "worker-side" (fun () -> ()) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  Trace.set_enabled false;
  let evs = Trace.events () in
  Alcotest.(check int) "all domains merged" 3 (List.length evs);
  let tids =
    List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.Trace.tid) evs)
  in
  Alcotest.(check int) "three distinct domains" 3 (List.length tids);
  let ids = List.map (fun (e : Trace.event) -> e.Trace.id) evs in
  Alcotest.(check int) "ids unique across domains" 3 (List.length (List.sort_uniq Int.compare ids))

(* --- flight ring ----------------------------------------------------------- *)

(* The ring feeds from Trace even while tracing is off; each domain
   keeps exactly its last [capacity] spans under single-threaded
   recording, and a dump merges the survivors in start-time order. *)
let test_ring_wrap_under_domains () =
  Ring.set_enabled true;
  let per_domain = (2 * Ring.capacity) + 100 in
  let hammer () =
    for i = 1 to per_domain do
      Trace.with_span ~cat:"hammer" (Printf.sprintf "h%d" i) (fun () -> ())
    done
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn hammer) in
  Array.iter Domain.join doms;
  Ring.set_enabled false;
  let spans = Ring.dump () in
  Alcotest.(check int) "each ring holds exactly capacity" (4 * Ring.capacity)
    (List.length spans);
  (* survivors are each domain's most recent [capacity] spans *)
  List.iter
    (fun (s : Ring.span) ->
      let i = int_of_string (String.sub s.Ring.name 1 (String.length s.Ring.name - 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "span %d survived the wrap" i)
        true
        (i > per_domain - Ring.capacity))
    spans;
  let ts = List.map (fun (s : Ring.span) -> s.Ring.ts_ns) spans in
  Alcotest.(check bool) "dump sorted by start time" true (List.sort Int.compare ts = ts)

(* Pools spawn fresh domains for every batch, so a long-lived daemon
   records from an unbounded sequence of domains: the rings must stay
   bounded, the newest domains' spans must stay dumpable, and trace
   buffers of exited domains must keep the events they hold. *)
let test_ring_bounded_over_domain_churn () =
  Ring.set_enabled true;
  let domains = 64 in
  for d = 1 to domains do
    Domain.join
      (Domain.spawn (fun () ->
           for i = 1 to Ring.capacity do
             Trace.with_span ~cat:"churn" (Printf.sprintf "d%d-%d" d i) (fun () -> ())
           done))
  done;
  Ring.set_enabled false;
  let held = Ring.recorded () in
  Alcotest.(check bool)
    (Printf.sprintf "%d spans held after %d domains <= 32 rings" held domains)
    true
    (held <= 32 * Ring.capacity);
  let names = List.map (fun (s : Ring.span) -> s.Ring.name) (Ring.dump ()) in
  for i = 1 to Ring.capacity do
    let name = Printf.sprintf "d%d-%d" domains i in
    Alcotest.(check bool) (name ^ " dumpable after its domain exited") true (List.mem name names)
  done;
  Trace.set_enabled true;
  List.iter (fun name -> Domain.join (Domain.spawn (fun () -> Trace.instant name))) [ "a"; "b" ];
  Trace.set_enabled false;
  let evs = Trace.events () in
  Alcotest.(check (list string)) "exited domains' trace events kept" [ "a"; "b" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) evs);
  Alcotest.(check int) "each event keeps its own domain" 2
    (List.length (List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.Trace.tid) evs)))

let test_ring_disabled_records_nothing () =
  Trace.with_span "invisible" (fun () -> ());
  Ring.record
    { Ring.name = "direct"; cat = ""; dom = 0; ts_ns = 0; dur_ns = 0; args = [] };
  Alcotest.(check int) "nothing recorded while off" 0 (Ring.recorded ())

let test_ring_dump_jsonl () =
  Ring.set_enabled true;
  Trace.with_span ~cat:"c" ~args:[ ("k", "v\"q") ] "jsonl-span" (fun () -> ());
  Ring.set_enabled false;
  let lines =
    String.split_on_char '\n' (Ring.dump_jsonl ()) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per span" 1 (List.length lines);
  let l = List.hd lines in
  let contains needle =
    let n = String.length needle and m = String.length l in
    let rec go i = i + n <= m && (String.sub l i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chrome complete event" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "name present" true (contains "\"name\":\"jsonl-span\"");
  Alcotest.(check bool) "args object present" true (contains "\"args\":{");
  Alcotest.(check bool) "arg value escaped" true (contains "v\\\"q");
  Alcotest.(check bool) "duration in us" true (contains "\"dur\":")

let test_ring_dump_parses () =
  Ring.set_enabled true;
  Trace.with_span ~cat:nasty ~args:[ (nasty, nasty); ("empty", "") ] nasty (fun () -> ());
  Trace.with_span "plain" (fun () -> ());
  Ring.set_enabled false;
  let events = List.map parse_line (lines_of (Ring.dump_jsonl ())) in
  Alcotest.(check int) "one line per span" 2 (List.length events);
  List.iter
    (fun j ->
      Alcotest.(check bool) "flight dumps are pid 1" true (field "pid" j = Json.Int 1);
      Alcotest.(check bool) "complete event" true (field "ph" j = Json.String "X"))
    events;
  let j = List.find (fun j -> field "name" j = Json.String nasty) events in
  Alcotest.(check bool) "cat reads back" true (field "cat" j = Json.String nasty);
  Alcotest.(check bool) "args read back" true
    (field "args" j = Json.Obj [ (nasty, Json.String nasty); ("empty", Json.String "") ]);
  let plain = List.find (fun j -> field "name" j = Json.String "plain") events in
  Alcotest.(check bool) "empty cat is default" true (field "cat" plain = Json.String "default");
  Alcotest.(check bool) "no args, no object" true (Json.member "args" plain = None)

(* daemon-side requirement: spans completed inside a remote context carry
   the caller's correlation ids even when only the ring is recording *)
let test_ring_spans_carry_remote_context () =
  Ring.set_enabled true;
  let request =
    Metrics.Request.make
      ~tags:[ ("trace_id", "trace-77"); ("parent_span", "span-3"); ("req_id", "req-9") ]
      (Metrics.Scope.create ())
  in
  Metrics.Request.with_ request (fun () -> Trace.with_span "ctx-span" (fun () -> ()));
  Trace.with_span "bare-span" (fun () -> ());
  Ring.set_enabled false;
  let spans = Ring.dump () in
  let find name = List.find (fun (s : Ring.span) -> s.Ring.name = name) spans in
  let stamped = find "ctx-span" and bare = find "bare-span" in
  Alcotest.(check (option string)) "trace_id stamped" (Some "trace-77")
    (List.assoc_opt "trace_id" stamped.Ring.args);
  Alcotest.(check (option string)) "parent_span stamped" (Some "span-3")
    (List.assoc_opt "parent_span" stamped.Ring.args);
  Alcotest.(check (option string)) "req_id stamped" (Some "req-9")
    (List.assoc_opt "req_id" stamped.Ring.args);
  Alcotest.(check (option string)) "no leakage outside the context" None
    (List.assoc_opt "trace_id" bare.Ring.args)

(* an owner's counter created with [~request] also counts in the request
   the calling thread serves *)
let test_remote_context_attribution () =
  let module Scope = Metrics.Scope in
  let owner = Scope.create () in
  let solves = Scope.counter owner ~request:"dc_solves" "dc_solves" in
  let hits = Scope.counter owner ~request:"cache_hits" "hits" in
  let retries = Scope.counter owner ~request:"retries" "retries" in
  let counts = Scope.create () in
  let req_solves = Scope.counter counts "dc_solves" in
  let req_hits = Scope.counter counts "cache_hits" in
  let req_retries = Scope.counter counts "retries" in
  Metrics.Request.with_ (Metrics.Request.make ~tags:[ ("req_id", "r") ] counts) (fun () ->
      Scope.incr solves;
      Scope.incr solves;
      Scope.incr hits;
      Scope.add retries 3);
  (* attribution outside any request is dropped, not misfiled *)
  Scope.incr solves;
  Alcotest.(check int) "dc solves attributed" 2 (Scope.get req_solves);
  Alcotest.(check int) "cache hits attributed" 1 (Scope.get req_hits);
  Alcotest.(check int) "retries attributed" 3 (Scope.get req_retries);
  Alcotest.(check (list (pair string int)))
    "the owner counted every event once" [ ("dc_solves", 3); ("hits", 1); ("retries", 3) ]
    (Scope.snapshot owner)

(* --- rolling window -------------------------------------------------------- *)

let s_to_ns s = int_of_float (s *. 1e9)

(* exact nearest-rank reference for the percentile checks *)
let ref_percentile sorted p =
  let n = Array.length sorted in
  let rank = Int.max 1 (int_of_float (Float.round (p *. float_of_int n /. 100.0 +. 0.5))) in
  sorted.(Int.min (n - 1) (rank - 1))

let test_rolling_percentiles_vs_reference () =
  let t = Rolling.create () in
  let durs = Array.init 200 (fun i -> 0.001 *. float_of_int (i + 1)) in
  (* shuffle deterministically so insertion order is not sorted *)
  let st = Random.State.make [| 42 |] in
  for i = Array.length durs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = durs.(i) in
    durs.(i) <- durs.(j);
    durs.(j) <- tmp
  done;
  let now = s_to_ns 1000.0 in
  Array.iter (fun d -> Rolling.observe t ~now_ns:now ~dur_s:d ~outcome:Rolling.Ok) durs;
  let s = Rolling.snapshot t ~now_ns:now in
  Alcotest.(check int) "count" 200 s.Rolling.count;
  Alcotest.(check (float 1e-9)) "max is exact" 0.2 s.Rolling.max_s;
  let sorted = Array.copy durs in
  Array.sort Float.compare sorted;
  List.iter
    (fun (p, got) ->
      let want = ref_percentile sorted p in
      let rel = got /. want in
      Alcotest.(check bool)
        (Printf.sprintf "p%g %.4f within sqrt2 of reference %.4f" p got want)
        true
        (rel >= 1.0 /. Float.sqrt 2.0 && rel <= Float.sqrt 2.0))
    [ (50.0, s.Rolling.p50_s); (95.0, s.Rolling.p95_s); (99.0, s.Rolling.p99_s) ];
  let mean = Array.fold_left ( +. ) 0.0 durs /. 200.0 in
  Alcotest.(check (float 1e-9)) "mean exact" mean s.Rolling.mean_s

let test_rolling_window_expiry () =
  let t = Rolling.create () in
  Rolling.observe t ~now_ns:(s_to_ns 5.0) ~dur_s:0.01 ~outcome:Rolling.Error;
  Rolling.observe t ~now_ns:(s_to_ns 15.0) ~dur_s:0.02 ~outcome:Rolling.Timeout;
  Rolling.observe t ~now_ns:(s_to_ns 55.0) ~dur_s:0.04 ~outcome:Rolling.Ok;
  let s = Rolling.snapshot t ~now_ns:(s_to_ns 59.0) in
  Alcotest.(check int) "all three inside the window" 3 s.Rolling.count;
  Alcotest.(check int) "error counted" 1 s.Rolling.errors;
  Alcotest.(check int) "timeout counted" 1 s.Rolling.timeouts;
  (* at t=65 the first bucket (0..10s) has left the 60s window *)
  let s = Rolling.snapshot t ~now_ns:(s_to_ns 65.0) in
  Alcotest.(check int) "oldest bucket expired" 2 s.Rolling.count;
  Alcotest.(check int) "its error went with it" 0 s.Rolling.errors;
  (* far in the future everything is stale *)
  let s = Rolling.snapshot t ~now_ns:(s_to_ns 500.0) in
  Alcotest.(check int) "empty after the window passes" 0 s.Rolling.count;
  Alcotest.(check bool) "percentiles nan when empty" true (Float.is_nan s.Rolling.p50_s);
  (* stale buckets are recycled on the next observation, not leaked into *)
  Rolling.observe t ~now_ns:(s_to_ns 500.0) ~dur_s:0.08 ~outcome:Rolling.Ok;
  let s = Rolling.snapshot t ~now_ns:(s_to_ns 500.0) in
  Alcotest.(check int) "recycled bucket counts only the new sample" 1 s.Rolling.count

let test_rolling_rate () =
  let t = Rolling.create () in
  Alcotest.(check (float 1e-9)) "window span" 60.0 Rolling.window_s;
  for i = 1 to 120 do
    Rolling.observe t ~now_ns:(s_to_ns (float_of_int i *. 0.25)) ~dur_s:0.001
      ~outcome:Rolling.Ok
  done;
  (* 120 completions over a 60 s window -> 2/s *)
  let s = Rolling.snapshot t ~now_ns:(s_to_ns 30.0) in
  Alcotest.(check (float 1e-9)) "rate over the window" 2.0 s.Rolling.rate_per_s

(* --- spool ------------------------------------------------------------------ *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let test_spool_count_cap () =
  let dir = temp_dir "spool" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let written =
    List.init 5 (fun i ->
        match Spool.write ~dir ~max_files:3 ~max_bytes:1_000_000 (Printf.sprintf "dump-%d\n" i) with
        | Ok path -> path
        | Error e -> Alcotest.failf "write %d failed: %s" i e)
  in
  let survivors = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  Alcotest.(check int) "count cap enforced" 3 (List.length survivors);
  let newest = List.filteri (fun i _ -> i >= 2) written |> List.map Filename.basename in
  Alcotest.(check (list string)) "newest files survive" (List.sort String.compare newest)
    survivors

let test_spool_bytes_cap () =
  let dir = temp_dir "spool" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let blob = String.make 100 'x' in
  List.iter
    (fun i ->
      match Spool.write ~dir ~max_files:100 ~max_bytes:250 blob with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "write %d failed: %s" i e)
    [ 1; 2; 3; 4; 5 ];
  let files = Sys.readdir dir in
  Alcotest.(check int) "bytes cap leaves two 100-byte files" 2 (Array.length files)

let test_log_rotation () =
  let dir = temp_dir "alog" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "access.log" in
  let log = Spool.open_log ~path ~max_bytes:200 () in
  let line_len = 50 in
  (* 20 lines of 50 bytes: several generations' worth against a
     200-byte cap *)
  for i = 1 to 20 do
    Spool.line log (Printf.sprintf "%04d %s" i (String.make (line_len - 5) 'a'))
  done;
  Spool.close_log log;
  let size p = (Unix.stat p).Unix.st_size in
  Alcotest.(check bool) "live log exists" true (Sys.file_exists path);
  Alcotest.(check bool) "live log under the cap" true (size path <= 200);
  Alcotest.(check bool) "one rotation kept" true (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "second rotation kept" true (Sys.file_exists (path ^ ".2"));
  Alcotest.(check bool) "beyond keep evicted" false (Sys.file_exists (path ^ ".3"));
  (* every surviving line is intact: rotation never tears a line *)
  List.iter
    (fun p ->
      if Sys.file_exists p then begin
        let ic = open_in p in
        (try
           while true do
             let l = input_line ic in
             Alcotest.(check int) ("line length in " ^ p) line_len (String.length l)
           done
         with End_of_file -> ());
        close_in ic
      end)
    [ path; path ^ ".1"; path ^ ".2" ]

(* --- metrics -------------------------------------------------------------- *)

let test_counter_gated () =
  let c = Metrics.counter "test.gated.counter" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 10;
  Alcotest.(check int) "disabled counter stays 0" 0 (Metrics.Counter.get c);
  Metrics.set_enabled true;
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "enabled counter counts" 5 (Metrics.Counter.get c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.Counter.get c)

let test_registry_identity_and_kinds () =
  let c1 = Metrics.counter "test.registry.c" in
  let c2 = Metrics.counter "test.registry.c" in
  Metrics.set_enabled true;
  Metrics.Counter.incr c1;
  Alcotest.(check int) "same name, same instrument" 1 (Metrics.Counter.get c2);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics.histogram: \"test.registry.c\" is registered as another kind")
    (fun () -> ignore (Metrics.histogram "test.registry.c"))

let test_histogram_stats () =
  Metrics.set_enabled true;
  let h = Metrics.histogram "test.hist" in
  let samples = [ 1.0; 2.0; 4.0; 8.0; 1000.0 ] in
  List.iter (Metrics.Histogram.observe h) samples;
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1015.0 (Metrics.Histogram.sum h);
  Alcotest.(check (float 0.0)) "min exact" 1.0 (Metrics.Histogram.min_value h);
  Alcotest.(check (float 0.0)) "max exact" 1000.0 (Metrics.Histogram.max_value h);
  (* the extreme ranks are exact; interior ranks are bucket midpoints *)
  Alcotest.(check (float 0.0)) "p0 = exact min" 1.0 (Metrics.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 = exact max" 1000.0 (Metrics.Histogram.percentile h 100.0);
  let p50 = Metrics.Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 in the bucket of 4.0" true (p50 >= 2.0 && p50 <= 8.0);
  (* power-of-two buckets: each sample inside its bucket bounds *)
  let buckets = Metrics.Histogram.buckets h in
  Alcotest.(check int) "five non-empty buckets" 5 (List.length buckets);
  List.iter2
    (fun v (lo, hi, n) ->
      Alcotest.(check int) "one sample per bucket" 1 n;
      Alcotest.(check bool)
        (Printf.sprintf "%g in [%g, %g)" v lo hi)
        true
        (lo <= v && v < hi))
    (List.sort Float.compare samples)
    buckets

let test_histogram_disabled_and_reset () =
  let h = Metrics.histogram "test.hist.off" in
  Metrics.Histogram.observe h 3.0;
  Alcotest.(check int) "disabled observe dropped" 0 (Metrics.Histogram.count h);
  Metrics.set_enabled true;
  Metrics.Histogram.observe h 3.0;
  Metrics.reset ();
  Alcotest.(check int) "reset empties" 0 (Metrics.Histogram.count h);
  Alcotest.(check bool) "min nan when empty" true
    (Float.is_nan (Metrics.Histogram.min_value h));
  Alcotest.(check bool) "percentile nan when empty" true
    (Float.is_nan (Metrics.Histogram.percentile h 50.0))

let test_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "disabled set dropped" 0.0 (Metrics.Gauge.get g);
  Metrics.set_enabled true;
  Metrics.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "enabled set lands" 2.5 (Metrics.Gauge.get g)

(* --- probes --------------------------------------------------------------- *)

let test_probe () =
  let p = Probe.make ~cat:"test" ~hist:"test.probe.seconds" "probed" in
  Alcotest.(check int) "enter is -1 while both off" (-1) (Probe.enter p);
  Probe.leave p (-1);
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let t0 = Probe.enter p in
  Alcotest.(check bool) "enter reads the clock when on" true (t0 >= 0);
  Probe.leave p t0;
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let h = Metrics.histogram "test.probe.seconds" in
  Alcotest.(check int) "one observation" 1 (Metrics.Histogram.count h);
  Alcotest.(check bool) "non-negative duration" true (Metrics.Histogram.min_value h >= 0.0);
  let evs = Trace.events () in
  Alcotest.(check int) "one span" 1 (List.length evs);
  Alcotest.(check string) "span name" "probed" (List.hd evs).Trace.name

(* --- export --------------------------------------------------------------- *)

let test_chrome_export () =
  Trace.set_enabled true;
  Trace.with_span ~cat:"x" ~args:[ ("quote", "a\"b"); ("nl", "a\nb") ] "escaped" (fun () ->
      Trace.instant "mark");
  Trace.set_enabled false;
  let json = Export.chrome_json () in
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 0
    && String.sub json 0 16 = "{\"traceEvents\":[");
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "complete event" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "instant event" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "thread metadata" true (contains "\"thread_name\"");
  Alcotest.(check bool) "quote escaped" true (contains "a\\\"b");
  Alcotest.(check bool) "newline escaped" true (contains "a\\nb");
  Alcotest.(check bool) "object closed" true
    (String.length json >= 2 && String.sub json (String.length json - 2) 2 = "}\n")

let test_jsonl_export () =
  Trace.set_enabled true;
  Metrics.set_enabled true;
  Trace.with_span "line-span" (fun () -> ());
  Metrics.Counter.incr (Metrics.counter "test.jsonl.counter");
  Metrics.Histogram.observe (Metrics.histogram "test.jsonl.hist") 2.0;
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let lines =
    String.split_on_char '\n' (Export.jsonl ()) |> List.filter (fun l -> l <> "")
  in
  (* one span line + counter + non-empty histogram (empty histograms from
     other registrations are skipped) *)
  List.iter
    (fun l ->
      Alcotest.(check bool) ("line is an object: " ^ l) true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let count_type t =
    List.length
      (List.filter
         (fun l ->
           let needle = Printf.sprintf "{\"type\":\"%s\"" t in
           String.length l >= String.length needle
           && String.sub l 0 (String.length needle) = needle)
         lines)
  in
  Alcotest.(check int) "one span line" 1 (count_type "span");
  Alcotest.(check bool) "counter lines present" true (count_type "counter" >= 1);
  Alcotest.(check int) "one histogram line" 1 (count_type "histogram")

let test_export_parses () =
  Trace.set_enabled true;
  Metrics.set_enabled true;
  Trace.with_span ~cat:nasty ~args:[ (nasty, nasty) ] nasty (fun () ->
      Trace.instant ~cat:nasty ~args:[ (nasty, nasty) ] nasty);
  let h = Metrics.histogram "test.export.sum" in
  Metrics.Histogram.observe h 0.1;
  Metrics.Histogram.observe h 0.2;
  let g = Metrics.gauge "test.export.gauge" in
  Metrics.Gauge.set g (0.1 +. 0.2);
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let bits j = Int64.bits_of_float (Option.get (Json.to_float j)) in
  let lines = List.map parse_line (lines_of (Export.jsonl ())) in
  let named name = List.find (fun j -> field "name" j = Json.String name) lines in
  let traced = List.filter (fun j -> field "name" j = Json.String nasty) lines in
  let types = List.map (fun j -> Option.get (Json.to_str (field "type" j))) traced in
  Alcotest.(check (list string)) "span and instant read back" [ "instant"; "span" ]
    (List.sort compare types);
  List.iter
    (fun j ->
      Alcotest.(check bool) "cat reads back" true (field "cat" j = Json.String nasty);
      Alcotest.(check bool) "args read back" true
        (field "args" j = Json.Obj [ (nasty, Json.String nasty) ]))
    traced;
  Alcotest.(check int64) "histogram sum bit for bit" (Int64.bits_of_float (Metrics.Histogram.sum h))
    (bits (field "sum" (named "test.export.sum")));
  Alcotest.(check int64) "gauge bit for bit" (Int64.bits_of_float (0.1 +. 0.2))
    (bits (field "value" (named "test.export.gauge")));
  let chrome = Export.chrome_json () in
  let events =
    match field "traceEvents" (parse_line chrome) with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  let phases =
    List.filter_map
      (fun j -> if field "name" j = Json.String nasty then Json.to_str (field "ph" j) else None)
      events
  in
  Alcotest.(check (list string)) "chrome span and instant" [ "X"; "i" ] (List.sort compare phases);
  List.iter
    (fun j -> Alcotest.(check bool) "trace export is pid 0" true (field "pid" j = Json.Int 0))
    events

let test_write_dispatch () =
  Trace.set_enabled true;
  Trace.with_span "disk" (fun () -> ());
  Trace.set_enabled false;
  let chrome = Filename.temp_file "obs" ".json" in
  let jsonl = Filename.temp_file "obs" ".jsonl" in
  Export.write ~path:chrome;
  Export.write ~path:jsonl;
  let read p =
    let ic = open_in p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check bool) "chrome file" true (String.length (read chrome) > 20);
  Alcotest.(check bool) "chrome format" true (String.sub (read chrome) 0 1 = "{");
  Alcotest.(check bool) "jsonl format" true (String.sub (read jsonl) 0 8 = "{\"type\":");
  Sys.remove chrome;
  Sys.remove jsonl

let test_summary_render () =
  Metrics.set_enabled true;
  Metrics.Counter.add (Metrics.counter "test.render.counter") 3;
  Metrics.Histogram.observe (Metrics.histogram "test.render.hist") 5.0;
  Metrics.set_enabled false;
  let s = Export.summary () in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter listed" true (contains "test.render.counter");
  Alcotest.(check bool) "histogram listed" true (contains "test.render.hist");
  Alcotest.(check bool) "percentiles rendered" true (contains "p95")

let () =
  let t name f = Alcotest.test_case name `Quick (isolated f) in
  Alcotest.run "obs"
    [
      ( "trace",
        [
          t "disabled records nothing" test_disabled_records_nothing;
          t "span nesting and parentage" test_span_nesting;
          t "exceptions close spans" test_exception_closes_spans;
          t "threads on one domain nest apart" test_threads_nest_apart;
          t "per-domain buffers merge" test_multi_domain_buffers;
        ] );
      ( "ring",
        [
          t "wrap and dump under 4-domain hammering" test_ring_wrap_under_domains;
          t "bounded over domain churn" test_ring_bounded_over_domain_churn;
          t "disabled records nothing" test_ring_disabled_records_nothing;
          t "dump_jsonl chrome events" test_ring_dump_jsonl;
          t "dump_jsonl lines parse as JSON" test_ring_dump_parses;
          t "spans carry the remote context" test_ring_spans_carry_remote_context;
          t "remote-context attribution" test_remote_context_attribution;
        ] );
      ( "rolling",
        [
          t "percentiles vs nearest-rank reference" test_rolling_percentiles_vs_reference;
          t "window expiry and recycle" test_rolling_window_expiry;
          t "rate over the window" test_rolling_rate;
        ] );
      ( "spool",
        [
          t "file-count cap" test_spool_count_cap;
          t "byte cap" test_spool_bytes_cap;
          t "access-log rotation" test_log_rotation;
        ] );
      ( "metrics",
        [
          t "counter gating" test_counter_gated;
          t "registry identity and kind clash" test_registry_identity_and_kinds;
          t "histogram statistics" test_histogram_stats;
          t "histogram gating and reset" test_histogram_disabled_and_reset;
          t "gauge" test_gauge;
        ] );
      ("probe", [ t "probe spans and histograms" test_probe ]);
      ( "export",
        [
          t "chrome trace-event JSON" test_chrome_export;
          t "jsonl" test_jsonl_export;
          t "every line parses, floats exact" test_export_parses;
          t "write dispatch by suffix" test_write_dispatch;
          t "metrics summary" test_summary_render;
        ] );
    ]
