(** Hierarchical tracing spans, zero-cost when disabled.

    Every recording call first checks a global enabled flag (one atomic
    load); when tracing is off the hot paths pay only that branch and
    allocate nothing. When on, events land in per-Domain buffers
    (Domain-local storage), so {!Lattice_engine.Pool} workers record
    without contention; {!events} merges the buffers afterwards. An
    exiting domain's buffer, with the events it holds, passes to the
    next domain that records, so the buffers stay as many as the
    domains alive at once.

    Spans form a tree per domain: {!begin_span} pushes onto a
    domain-local stack, {!end_span} pops, and each event records its
    parent's span id. Leaf work that must stay allocation-free on the
    untraced path (LU factor/solve) uses {!complete} to append an
    already-timed span retroactively; its parent is whatever span is
    open on the recording domain's stack at that moment.

    Tracing starts disabled. Setting the [FTL_TRACE] environment
    variable to anything but [""] or ["0"] enables it at program start
    (used by CI to exercise the instrumented paths); the [ftl] CLI's
    [--trace FILE] flag enables it and exports on exit.

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

(** {2 Remote request context}

    The serve layer runs each request under a {!remote_context} so that
    every span recorded while handling it — on the worker systhread and
    on any {!Lattice_engine.Pool} domain it fans out to — is stamped
    with the request's id and the client's [trace_id]/[parent_span].
    That stamping is what lets [ftl client --trace] stitch client and
    daemon spans into one Perfetto timeline, and what ties flight-
    recorder dumps back to the request that triggered them.

    The context also carries per-request attribution counters
    (dc solves, cache hits, retries) that the engine increments and the
    server's access log reads back. *)

type remote_context

val make_context :
  ?trace_id:string -> ?parent_span:string -> ?req_id:string -> unit -> remote_context

val with_remote_context : remote_context -> (unit -> 'a) -> 'a
(** Install the context for the calling thread for the duration of [f];
    exception-safe, restores any previously installed context. *)

val with_context_opt : remote_context option -> (unit -> 'a) -> 'a
(** [with_context_opt None f] is [f ()]; used by pool workers to
    inherit the submitting thread's context. *)

val current_context : unit -> remote_context option

val attribute_dc_solve : unit -> unit
(** Count one real DC solve against the current context (no-op without
    one). *)

val attribute_cache_hit : unit -> unit

val attribute_retries : int -> unit

val context_dc_solves : remote_context -> int
val context_cache_hits : remote_context -> int
val context_retries : remote_context -> int

type token = int
(** Handle returned by {!begin_span}; compare against {!null}. *)

val null : token
(** The token of a span that was never started (tracing disabled). *)

val begin_span : ?cat:string -> ?args:(string * string) list -> string -> token
(** Open a span on the calling domain. Returns {!null} when neither
    tracing nor the {!Ring} flight recorder wants spans. Must be closed
    by {!end_span} on the same domain. *)

val end_span : token -> unit
(** Close a span. Spans left open above [token] on the domain's stack
    (abandoned by an exception) are closed at the same instant, and
    every closed span is fed to the {!Ring} flight recorder when it is
    enabled. A {!null} token is ignored. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; exception-safe. When
    both tracing and the flight recorder are disabled this is [f ()]
    with no allocation beyond the closure the caller already built. *)

val complete :
  ?cat:string -> ?args:(string * string) list -> name:string -> t0_ns:int -> t1_ns:int -> unit -> unit
(** Append an already-timed span ([t0_ns]/[t1_ns] from {!Clock.now_ns});
    parented under the domain's currently open span. Also fed to the
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
