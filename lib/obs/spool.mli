(** Bounded on-disk telemetry sinks.

    Two disciplines, one invariant: telemetry output is capped by
    size/count with oldest-first eviction, and filesystem failures are
    reported (or swallowed), never raised — a full disk must not take a
    request down.

    {2 Spool directory}

    Flight-recorder dumps land in a spool dir ([FTL_FLIGHT_DIR]) as
    self-describing timestamped files; after each write the oldest
    files are evicted until the dir is back under both caps. *)

val max_files : int
(** The spool's file cap, the one definition of the daemon's. *)

val max_bytes : int
(** The spool's byte cap, the one definition of the daemon's. *)

val write : dir:string -> ?max_files:int -> ?max_bytes:int -> string -> (string, string) result
(** [write ~dir content] creates the dir if needed, writes [content] to
    a fresh [flight-<ms>-<pid>-<seq>.jsonl] file (names sort
    chronologically), prunes oldest-first to [max_files] files /
    [max_bytes] total, and returns the path written. *)

(** {2 Rotating line log}

    Append-oriented JSONL log (the daemon access log): when the live
    file would exceed [max_bytes] it is renamed to [.1], prior
    generations shift up, and the one past [.2] is deleted. *)

type log

val log_max_bytes : int
(** The log's rotation size, the one definition of the daemon's. *)

val open_log : path:string -> ?max_bytes:int -> unit -> log

val line : log -> string -> unit
(** Append one line (newline added), rotating first if it would
    overflow the cap. Thread-safe; errors are swallowed. *)

val close_log : log -> unit
