(** The `ftl serve` daemon: simulation-as-a-service over a Unix-domain
    (and optionally TCP) socket, multiplexing jobs onto one long-lived
    {!Lattice_engine.Engine}.

    {2 Architecture}

    One reader thread per connection parses newline-delimited JSON
    frames ({!Framing}, {!Protocol}). Control requests ([ping],
    [stats], [shutdown]) answer inline from the reader; compute
    requests are {e admitted} — per-client in-flight quota, then a
    bounded FIFO admission queue — and picked up by a fixed pool of
    worker threads that run the handler against the shared engine and
    write the response under the connection's write lock. A hot
    [dc_op] skips admission (see below). Admission
    failure is an immediate structured error ([quota_exceeded] /
    [overloaded] — explicit backpressure, never a silent drop), and no
    request of any shape can kill the daemon: handler exceptions come
    back as [internal] errors, deadline overruns as [timeout].

    The engine — Domain pool, content-addressed DC cache, persistent
    {!Lattice_engine.Store} spill directory — lives for the daemon's
    lifetime, so the warm-cache hit rate compounds {e across requests
    and across clients}, and with a store directory also across daemon
    restarts: a restarted daemon answers repeat requests from disk with
    zero DC solves.

    {2 dc_op: circuit memo and inline hits}

    A [dc_op]'s circuit — the lattice synthesized from [expr] and built
    at the request's [vdd] (an omitted [vdd] is the default one) — is
    memoized under [(expr, vdd)]: at most 16 circuits, under the
    engine cache's second-chance rule
    ({!Lattice_engine.Cache.Second_chance}). Only workers build and
    memoize a circuit. Every [dc_op], queued or inline, is answered by
    rebinding the memoized circuit's input drivers to the requested
    state ({!Lattice_spice.Lattice_circuit.rebind}), so its payload is
    byte-identical to building the circuit afresh.

    When the circuit is memoized and the state's solution is resident
    in the engine's memory cache
    ({!Lattice_engine.Engine.resident_dc_op}), the reader answers the
    request itself, without the queue. Anything else — a memo or cache
    miss, an out-of-range state, a stopping daemon — is admitted like
    any compute request, and the worker's {!Lattice_engine.Engine.dc_op}
    then counts the only lookup the request makes: the engine counts
    one cache lookup per [dc_op] that reaches it, inline or queued. An
    inline hit skips admission, so it neither takes a queue slot nor
    counts against the connection's quota.

    {2 Shutdown}

    [shutdown] requests and SIGINT/SIGTERM (wired by {!run}) share one
    graceful path: stop admitting, drain queued and in-flight jobs
    (their responses are delivered), then close connections and
    listeners. Readers that race the drain get [shutting_down] errors.

    {2 Observability}

    The daemon counts each event once, in its
    {!Lattice_obs.Metrics.Scope} (registry prefix ["serve"]). [stats]
    reports that scope and {!Lattice_engine.Engine.counters};
    [metrics_text] renders every one of those counters, named after its
    place in [stats] ([server.requests] is [ftl_requests_total],
    [engine.cache.hits] is [ftl_engine_cache_hits_total]). Spans per
    phase ([serve.parse], [serve.handle]); histograms
    [serve.queue_wait.seconds] and [serve.handle.seconds] (monotonic
    clock, as are the drain deadline and [uptime_s]); level gauges
    [serve.queue.depth] and [serve.inflight]. The scope, the histograms
    and the gauges are registered by {!create}: a process that never
    creates a daemon lists none of them.

    Every frame is one request and one access-log line: a frame over
    [max_frame] bytes ([frame_too_long]) or with a NUL byte
    ([invalid_frame]) is logged as [malformed], as one that does not
    parse is. A line's [cache_hits], [dc_solves] and [retries] are the
    request's own counts ({!Lattice_obs.Metrics.Request}).

    Every request a handler answers — queued, control, or an inline
    [dc_op] hit — is counted in the [stats] rolling windows (and, for a
    timeout, the timeout counter) {e before} its answer is written, so
    a client holding an answer finds that request in its next [stats].
    The request's duration is taken at that point: the windows'
    latencies, the access log's [duration_ns] and the
    [slow_threshold_s] test measure from the handler's start to the
    answer being ready, and exclude writing the answer to the socket.
    For an inline hit the handler starts at the memo lookup.

    An inline hit reaches every per-request instrument a queued
    request does: the counters, the windows, the [serve.handle] span
    (opened once the lookup has hit) and histogram, the access line
    with its attributed cache hit, and a flight dump when slow. It
    skips only what the queue feeds: [serve.queue_wait.seconds] and
    the [serve.queue.depth] and [serve.inflight] gauges. *)

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** TCP listener on [tcp_host] *)
  tcp_host : string;  (** default 127.0.0.1 *)
  domains : int option;  (** engine Domain-pool width *)
  store_dir : string option;  (** persistent DC-result store root *)
  workers : int;  (** worker threads executing compute requests *)
  queue_capacity : int;  (** admission-queue bound *)
  max_inflight_per_client : int;  (** per-connection quota *)
  default_deadline_s : float option;
      (** per-request budget when the request names none *)
  max_frame : int;  (** request-line byte cap *)
  drain_deadline_s : float;  (** graceful-shutdown drain budget *)
  allow_sleep : bool;  (** accept the test-only [sleep] request *)
  log : (string -> unit) option;  (** one line per lifecycle event *)
  slow_threshold_s : float option;
      (** a request slower than this triggers a flight-recorder dump;
          [None] dumps only on errors/timeouts *)
  flight_dir : string option;
      (** flight-recorder spool directory, capped at
          {!Lattice_obs.Spool.max_files} files and
          {!Lattice_obs.Spool.max_bytes} bytes, oldest evicted; [None]
          disables dumps *)
  access_log_path : string option;
      (** structured JSONL access log, one line per request, rotated at
          {!Lattice_obs.Spool.log_max_bytes} bytes *)
}

val default_config : config
(** No listeners (callers must set [socket_path] and/or [tcp_port]);
    2 workers; queue 64; quota 16; 30 s default deadline; 64 KiB
    frames; 10 s drain; [sleep] disabled; no log. Flight dumps go to
    [FTL_FLIGHT_DIR] when that is set; no slow threshold; no access
    log. *)

type t

val create : ?config:config -> unit -> t
(** Builds the engine (honoring [FTL_DOMAINS]/[FTL_CACHE_DIR] like the
    CLI when the config leaves them unset). Nothing listens yet. *)

val engine : t -> Lattice_engine.Engine.t

val start : t -> unit
(** Bind the listeners (unlinking a stale socket file), spawn the
    accept and worker threads, and return. Raises [Invalid_argument]
    when the config names no listener, [Unix.Unix_error] on bind
    failure. *)

val port : t -> int option
(** The bound TCP port, once started — useful with [tcp_port = Some 0]
    (ephemeral port) in tests. *)

val wait : t -> unit
(** Block until a stop is requested ([shutdown] request, {!stop}, or a
    signal via {!run}), then tear down: stop
    accepting, drain in-flight work for up to [drain_deadline_s],
    join every thread, close every descriptor. Idempotent. *)

val stop : t -> unit
(** Flip the stop flag, then {!wait}. *)

val run : t -> unit
(** [start] + SIGINT/SIGTERM handlers (and SIGPIPE ignore) + [wait] —
    the CLI entry point. *)

val stats_json : t -> Json.t
(** The [stats] response body (also exposed for tests/CLI). *)

val metrics_text : t -> string
(** The [metrics_text] response's exposition text (also exposed for
    tests). *)

val memoized : t -> (string * float) list
(** The [(expr, vdd)] keys of the memoized [dc_op] circuits, in the
    order the eviction hand will pass them (for tests). *)
