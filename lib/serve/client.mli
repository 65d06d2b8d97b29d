(** Minimal blocking client for the {!Server} NDJSON protocol — the
    library behind [ftl client], and the harness the daemon tests drive
    connections with.

    One {!t} wraps one connection; calls are synchronous (send a frame,
    read one response frame). Pipelined use — several requests in
    flight, correlated by [id] — is available through the raw
    send/receive pair. Not thread-safe: one thread per client. *)

type addr = Unix_socket of string | Tcp of string * int

type t

exception Protocol_error of string
(** The peer closed mid-call or answered with a frame that is not a
    protocol response. *)

val connect : addr -> t
(** Raises [Unix.Unix_error] when nothing listens at [addr]. Response
    lines are capped at 16 MiB (results like path histograms outgrow
    request-side caps). *)

val close : t -> unit

val send_raw : t -> string -> unit
(** Ship one raw frame (newline appended) — malformed on purpose, or a
    pre-rendered request when pipelining. *)

val recv_raw : t -> string option
(** Next response line, [None] once the peer closes. *)

val call_raw : t -> string -> string
(** [send_raw] + [recv_raw], raising {!Protocol_error} on EOF. *)

val call :
  t ->
  ?id:Json.t ->
  ?deadline_s:float ->
  ?trace_id:string ->
  type_:string ->
  (string * Json.t) list ->
  (Json.t, Protocol.error_code * string) result
(** Build the request object ([type] + envelope + [fields]), ship it,
    and decode the response: [Ok result] or the structured error.
    [trace_id] correlates the daemon's spans with a client-side trace
    ({!Protocol.envelope}). Raises {!Protocol_error}
    only when the response itself is undecodable. *)

val ping : t -> bool
(** [true] iff the daemon answered the ping with [ok]. *)

val stats : t -> Json.t
(** The daemon's stats object; raises {!Protocol_error} on a
    structured-error answer (stats never legitimately fails). *)

val shutdown : t -> unit
(** Ask the daemon to stop; returns once the daemon acknowledges. *)
