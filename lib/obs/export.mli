(** Exporters over {!Trace.events} and {!Metrics.snapshot}.

    [chrome_json] emits the Chrome trace-event format (JSON object with
    a ["traceEvents"] array of ["ph":"X"] complete events and
    ["ph":"i"] instants, timestamps in microseconds) — load the file in
    Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or
    [chrome://tracing]. Each recording domain appears as its own track
    via [tid], with a thread-name metadata record.

    [jsonl] emits one self-describing JSON object per line: every trace
    event (with nanosecond timestamps and explicit [parent] span ids),
    then every metric. Suited to [jq]-style post-processing.

    Both print through {!Json.to_string}, the trace events through
    {!Ring.chrome_event} (the flight dump's encoder), so every line or
    document parses with {!Json.parse}; floats print at full precision
    (a histogram's [sum] reads back bit for bit) and a non-finite
    metric value prints as {!Json.float} maps it.

    [summary] is the human-readable metrics rendering
    ({!Metrics.render}). *)

val chrome_json : unit -> string
val jsonl : unit -> string
val summary : unit -> string

val write : path:string -> unit
(** Chrome format, unless [path] ends in [.jsonl]. *)
