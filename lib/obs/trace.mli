(** Hierarchical tracing spans, zero-cost when disabled.

    Every recording call first checks a global enabled flag (one atomic
    load); when tracing is off the hot paths pay only that branch and
    allocate nothing. When on, events land in per-Domain buffers
    (Domain-local storage), so {!Lattice_engine.Pool} workers record
    without contention; {!events} merges the buffers afterwards. An
    exiting domain's buffer, with the events it holds, passes to the
    next domain that records, so the buffers stay as many as the
    domains alive at once.

    Spans form a tree per thread: {!begin_span} pushes onto the calling
    systhread's stack of open spans, {!end_span} pops, and each event
    records its parent's span id. Threads sharing a domain (the
    daemon's readers and workers) share its buffer but never parent
    under, or close, each other's spans. Leaf work that must stay
    allocation-free on the untraced path (LU factor/solve) uses
    {!complete} to append an already-timed span retroactively; its
    parent is whatever span the recording thread has open at that
    moment.

    Tracing starts disabled. Setting the [FTL_TRACE] environment
    variable to anything but [""] or ["0"] enables it at program start
    (used by CI to exercise the instrumented paths); the [ftl] CLI's
    [--trace FILE] flag enables it and exports on exit.

    While a thread serves a {!Metrics.Request}, every span it records —
    on the daemon's worker or reader thread and on any
    {!Lattice_engine.Pool} domain the request fans out to — carries the
    request's tags ([trace_id], [parent_span], [req_id]). That stamping
    is what lets [ftl client --trace] stitch client and daemon spans
    into one Perfetto timeline, and what ties flight-recorder dumps back
    to the request that triggered them.

    Call-site rule for hot paths: guard argument construction with
    {!on}, e.g.
    [let sp = if Trace.on () then Trace.begin_span ~args:[...] "step"
              else Trace.null in ... Trace.end_span sp]
    so the [args] list is never allocated while tracing is off. *)

type kind = Span | Instant

type event = {
  id : int;  (** unique across domains, allocation order *)
  parent : int;  (** span id of the enclosing span, [-1] for roots *)
  name : string;
  cat : string;
  tid : int;  (** id of the recording domain *)
  ts_ns : int;  (** start time, ns since the trace epoch *)
  mutable dur_ns : int;
      (** span duration; [-1] while still open, [0] for instants *)
  args : (string * string) list;
  kind : kind;
}

val on : unit -> bool
(** One atomic load; safe from any domain. *)

val set_enabled : bool -> unit

type token = int
(** Handle returned by {!begin_span}; compare against {!null}. *)

val null : token
(** The token of a span that was never started (tracing disabled). *)

val begin_span : ?cat:string -> ?args:(string * string) list -> string -> token
(** Open a span on the calling thread. Returns {!null} when neither
    tracing nor the {!Ring} flight recorder wants spans. Must be closed
    by {!end_span} on the same thread. *)

val end_span : token -> unit
(** Close a span. Spans the thread left open above [token] (abandoned
    by an exception) are closed at the same instant, and every closed
    span is fed to the {!Ring} flight recorder when it is enabled. A
    {!null} token, or one the thread no longer has open, is ignored. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; exception-safe. When
    both tracing and the flight recorder are disabled this is [f ()]
    with no allocation beyond the closure the caller already built. *)

val complete :
  ?cat:string -> ?args:(string * string) list -> name:string -> t0_ns:int -> t1_ns:int -> unit -> unit
(** Append an already-timed span ([t0_ns]/[t1_ns] from {!Clock.now_ns});
    parented under the thread's currently open span. Also fed to the
    flight recorder. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration point event (step halvings, cache evictions,
    fallback-strategy transitions). *)

val events : unit -> event list
(** Merge every domain's buffer, sorted by [(ts_ns, id)] so the order is
    stable for identical timestamps. Call from a quiescent point (no
    domain actively recording). *)

val reset : unit -> unit
(** Drop all recorded events (buffers stay registered). Quiescent
    points only. *)
