(** Time-windowed SLO metrics: rolling counters and log-scale latency
    histograms over the last 60 s, in 6 buckets of 10 s.

    The window is a circular array of epoch-tagged buckets; stale
    buckets are recycled lazily on the next observation, so there is no
    background thread and expiry costs nothing. Percentiles come from
    the merged log-scale histogram with exact min/max endpoints —
    {!Metrics.Log_buckets}, the bucketing of {!Metrics.Histogram}, so
    interior ranks carry at most ~sqrt(2) relative error.

    The caller supplies timestamps ([now_ns], from {!Clock.now_ns});
    injecting the clock keeps the window algebra testable against a
    reference computation. Thread-safe. *)

type outcome = Ok | Error | Timeout

type t

val create : unit -> t

val window_s : float
(** [60.0] *)

val observe : t -> now_ns:int -> dur_s:float -> outcome:outcome -> unit

type snap = {
  count : int;
  errors : int;
  timeouts : int;
  rate_per_s : float;  (** completions per second over the full window *)
  mean_s : float;  (** [nan] when empty *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

val snapshot : t -> now_ns:int -> snap
(** Merge every bucket still inside the window ending at [now_ns]. *)
