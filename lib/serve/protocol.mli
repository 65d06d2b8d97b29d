(** The `ftl serve` wire protocol: newline-delimited JSON requests and
    responses.

    {2 Grammar}

    Every frame is one JSON object on one line. Requests carry a
    mandatory ["type"] plus type-specific fields; four envelope fields
    are accepted on every request: ["id"] (any scalar, echoed back
    verbatim so clients can pipeline), ["deadline_s"] (per-request
    wall-clock budget; jobs overrunning it answer a [timeout] error),
    and ["trace_id"]/["parent_span"] (client-side trace correlation,
    stamped into every daemon span recorded for the request). Unknown
    fields are rejected — a typo'd option must fail loudly, not
    silently fall back to a default.

    Responses are [{"id":..,"ok":true,"result":{..}}] or
    [{"id":..,"ok":false,"error":{"code":"..","message":".."}}]. A bad
    request of any shape yields a structured error; it never terminates
    the connection, let alone the daemon.

    {2 Request types}

    - [ping] — liveness probe.
    - [stats] — serving/engine/cache/store telemetry snapshot plus the
      rolling 60-second SLO window (per-type p50/p95/p99, rates).
    - [metrics_text] — Prometheus-style exposition text of the same
      telemetry, as a single string result.
    - [shutdown] — graceful daemon stop (drains in-flight jobs).
    - [dc_op] — [expr] (Boolean expression, <= 5 vars), [state] (input
      combination index), optional [vdd]: synthesize the lattice, solve
      the DC operating point through the engine's content-addressed
      cache, return the output voltage and solver diagnostics.
    - [transient] — [expr], optional [bit_time]/[h]: the Fig-11-style
      exhaustive-stimulus transient of the synthesized lattice. A
      request of more than 20,000 steps ([2^nvars * bit_time / h], the
      step cap of [run_deck]) answers [bad_request].
    - [yield] — [expr], optional [samples]/[sigma_vth]/[seed]:
      Monte-Carlo process-variation yield.
    - [defects] — [expr], optional [all_classes]: the circuit-level
      fault campaign (classification counts and detection).
    - [table1] — [rows], [cols] (2..12): ZDD product count.
    - [paths] — [rows], [cols] (2..12): product count plus per-size
      histogram.
    - [run_deck] — [deck] (SPICE deck text, <= 32768 bytes), optional
      [smoke]: parse the deck and execute its analysis cards through
      the shared engine under tight server-side limits. A malformed
      deck answers a [deck_error] whose error object carries the
      offending [line]/[col] — it never terminates the connection.
    - [sleep] — [seconds]: test-only worker stall; rejected unless the
      server enables it. *)

type request =
  | Ping
  | Stats
  | Metrics_text
  | Shutdown
  | Sleep of { seconds : float }
  | Dc_op of { expr : string; state : int; vdd : float option }
  | Transient of { expr : string; bit_time : float; h : float }
  | Yield of { expr : string; samples : int; sigma_vth : float; seed : int }
  | Defects of { expr : string; all_classes : bool }
  | Table1 of { rows : int; cols : int }
  | Paths of { rows : int; cols : int }
  | Run_deck of { deck : string; smoke : bool }

type envelope = {
  id : Json.t option;  (** echoed back verbatim in the response *)
  deadline_s : float option;
  trace_id : string option;
      (** client-side trace correlation id (1..128 bytes), stamped into
          every daemon span recorded for this request *)
  parent_span : string option;
      (** client-side span id the daemon's spans should link under;
          requires [trace_id] *)
  req : request;
}

val request_name : request -> string
(** The wire ["type"] tag, e.g. ["dc_op"] — for logs and span labels. *)

type error_code =
  | Parse_error  (** frame is not valid JSON *)
  | Bad_request  (** valid JSON, invalid shape or field value *)
  | Unknown_type
  | Unknown_field
  | Frame_too_long
  | Invalid_frame  (** NUL-bearing or otherwise unframeable bytes *)
  | Overloaded  (** admission queue full — back off and retry *)
  | Quota_exceeded  (** too many in-flight requests on this connection *)
  | Timeout  (** per-request deadline fired *)
  | Non_convergent  (** solver failed; message carries the diagnostics *)
  | Deck_error
      (** SPICE deck rejected; the error object carries [line]/[col] *)
  | Shutting_down
  | Internal

val code_name : error_code -> string

val parse_request : string -> (envelope, Json.t option * error_code * string) result
(** Frame line to validated envelope. On error, the first component is
    the request ["id"] when one could be recovered (so even a rejected
    request answers to the right pipeline slot). *)

val render_ok : id:Json.t option -> Json.t -> string
(** One response line (no trailing newline). *)

val render_error :
  ?details:(string * Json.t) list -> id:Json.t option -> error_code -> string -> string
(** [details] appends extra fields to the error object (after [code]
    and [message]) — e.g. [line]/[col] for a [Deck_error]. *)

(** {2 Response-side helpers} *)

val json_float : float -> Json.t
(** {!Json.float}. *)

type parsed_response = {
  resp_id : Json.t option;
  payload : (Json.t, error_code * string) result;
}

val parse_response : string -> (parsed_response, string) result
(** Client-side: split a response line into id and ok/error payload. *)
