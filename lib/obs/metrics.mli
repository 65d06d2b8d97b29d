(** Named counters, gauges and log-scale histograms, zero-cost when
    disabled.

    Instruments live in one global registry keyed by name: the first
    [counter]/[gauge]/[histogram] call for a name creates it, later
    calls return the same instrument (asking for an existing name with
    a different kind raises [Invalid_argument]). Recording calls check
    a global enabled flag first — one atomic load, nothing recorded and
    nothing allocated while metrics are off.

    Counters are Domain-safe atomics. Histograms use fixed power-of-two
    buckets (log scale, ~1e-12 .. 5e8 with under/overflow buckets), so
    an observation is a handful of arithmetic ops plus a short
    mutex-protected bucket bump — cheap enough for once-per-solve and
    once-per-factor call sites, and exact [min]/[max] are kept so tail
    percentiles clamp to really-observed values. *)

val on : unit -> bool
val set_enabled : bool -> unit

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val add : t -> float -> unit
  (** [add g dv] shifts the gauge by [dv] (no-op while disabled) — the
      primitive for level gauges maintained by concurrent inc/dec pairs,
      e.g. a server's live queue depth or in-flight request count, where
      [set] from several threads would lose updates. *)

  val get : t -> float
end

(** The [n] power-of-two buckets {!Histogram} and {!Rolling} share;
    [index v] is the bucket of [v] (non-positive values underflow). *)
module Log_buckets : sig
  val n : int
  val index : float -> int

  val percentile : int array -> count:int -> min_v:float -> max_v:float -> float -> float
  (** [percentile counts ~count ~min_v ~max_v p], [p] in [0..100]:
      nearest rank over [count] observations bucketed in [counts]. The
      first and last ranks return [min_v]/[max_v] exactly; interior
      ranks the selected bucket's geometric midpoint clamped to
      [[min_v, max_v]]. [nan] when [count = 0]. *)
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record a sample (no-op while disabled). Non-positive values land
      in the underflow bucket. *)

  val count : t -> int
  val sum : t -> float
  val min_value : t -> float
  (** [nan] when empty. *)

  val max_value : t -> float
  (** [nan] when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] is {!Log_buckets.percentile} over the
      histogram's buckets and exact observed [min]/[max]. [nan] when
      empty. *)

  val buckets : t -> (float * float * int) list
  (** Non-empty buckets as [(lower, upper, count)], ascending. *)
end

val counter : string -> Counter.t
val gauge : string -> Gauge.t
val histogram : string -> Histogram.t

(** {2 Scopes}

    A scope is one owner's named group of counters: an engine, a cache,
    a store, a daemon, a request. One call, {!Scope.add}, counts an
    event in up to three places: the scope's own cell, which every view
    of the owner reads; while metrics are on, the registry counter
    [registry ^ "." ^ name], shared by every scope of that name; and,
    for a counter made with [~request], the counter of that name in the
    {!Request} the calling thread serves. Make a scope's counters before
    sharing it; counting and reading are then Domain-safe. *)
module Scope : sig
  type t
  type counter

  val create : ?registry:string -> unit -> t
  val counter : ?request:string -> t -> string -> counter
  val add : counter -> int -> unit
  val incr : counter -> unit
  val get : counter -> int

  val snapshot : t -> (string * int) list
  (** Every counter, named as in the registry, sorted by name. *)

  val reset : t -> unit
  (** Zero the scope's cells, not the registry's. *)
end

(** {2 Requests}

    The request a thread serves, installed per systhread: the
    tags {!Trace} stamps on its spans and the scope of its own counts.
    The pool domains a request fans out to inherit it. *)
module Request : sig
  type t

  val make : ?tags:(string * string) list -> Scope.t -> t
  val tags : t -> (string * string) list
  val counts : t -> Scope.t

  val with_ : t -> (unit -> 'a) -> 'a
  (** Serve the request on the calling thread for the duration of [f]. *)

  val with_opt : t option -> (unit -> 'a) -> 'a
  val current : unit -> t option
end

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.t

val snapshot : unit -> (string * value) list
(** Every registered instrument, sorted by name. *)

val reset : unit -> unit
(** Zero every registered instrument (registry entries survive). *)

val render : unit -> string
(** Human-readable summary: counters, gauges, then one block per
    histogram with count/mean/percentiles and a bucket bar chart. *)
