(** Flight recorder: always-on fixed-size per-domain rings of the most
    recently completed spans.

    {!Trace} records nothing unless tracing is enabled; the ring is the
    opposite — it records every completed span (not instants) into a
    bounded ring regardless, so a failing or slow request leaves
    retroactive evidence. Overwrite is the contract: each domain keeps
    only its last {!capacity} spans. Rings live in a fixed table indexed
    by domain id, so the process holds at most 16 rings however many
    domains it spawns; an exited domain's spans stay dumpable until a
    domain 16 spawns later takes over its ring.

    Recording costs one atomic fetch-and-add plus one array store; the
    only allocation on that path is the span record itself. Concurrent
    writers to one ring (systhreads of a domain, or domains sharing a
    table slot) claim slots with the atomic cursor; a racing slot write
    can drop one record, never corrupt the ring.

    Enabled by default; set [FTL_FLIGHT=0] to disable at startup (used
    by the A/A overhead bench). *)

type span = {
  name : string;
  cat : string;
  dom : int;  (** recording domain *)
  ts_ns : int;  (** start, ns since the trace epoch *)
  dur_ns : int;
  args : (string * string) list;
}

val capacity : int
(** Slots per ring (power of two). *)

val on : unit -> bool
(** One atomic load; safe from any domain. *)

val set_enabled : bool -> unit

val record : span -> unit
(** Store a completed span in the calling domain's ring, overwriting
    the oldest; a no-op while disabled. Callers normally go through
    {!Trace}, which feeds the ring from [end_span]/[complete]
    automatically. *)

val dump : ?last_n:int -> unit -> span list
(** Merge every domain's surviving spans, sorted by start time; with
    [last_n], only the most recent [n]. Concurrent recording during a
    dump may drop or duplicate a handful of in-flight records — dumps
    are diagnostics, not ledgers. *)

val dump_jsonl : ?last_n:int -> unit -> string
(** {!dump} rendered one Chrome-trace ["X"] event per line (JSONL,
    [pid] 1, each line printed by {!Json.to_string}); wrapping the
    lines in a JSON array yields a Perfetto-loadable trace. *)

val chrome_event : ph:string -> ?fields:(string * Json.t) list -> pid:int -> span -> Json.t
(** One Chrome trace event of phase [ph]: [name], [cat] (["default"]
    when empty), [ph], then [fields], [pid], [tid] (the span's [dom]),
    [ts] and, for ["X"], [dur] (microseconds, a negative duration
    clamped to 0), and an [args] object unless [args] is empty. The one
    encoder of {!dump_jsonl} and {!Export.chrome_json}. *)

val recorded : unit -> int
(** Number of spans currently held across all rings. *)

val reset : unit -> unit
(** Clear every ring (tests). Quiescent points only. *)
