(** Domain pool: deterministic fan-out of independent jobs over OCaml 5
    Domains.

    The pool runs an indexed job function [f : int -> 'a] over indices
    [0 .. n-1] and merges results {e by index}, so the output array is
    identical whatever the scheduling order — running on 4 domains is
    bit-identical to running serially as long as [f] is pure in its
    index (no shared sequential RNG stream, no order-dependent
    accumulator). One domain is the degenerate serial case: the job
    runs entirely on the calling domain with no spawns.

    Workers claim indices from a shared atomic counter one at a time:
    a job is a whole circuit simulation (a Monte-Carlo die, a
    fault-campaign sample, an I-V sweep point) of 0.1-10 ms, not a
    micro-kernel, so one fetch-and-add per job costs nothing next to it,
    and no worker idles at the end of a batch while another still holds
    a claimed run of indices. The claim order is invisible in the
    results (index-merged).

    {!map_outcomes} is fault-isolating: every job is classified and
    nothing escapes. It is the one fan-out primitive; the engine's
    dispatch ({!Lattice_engine.Engine.run_jobs}) builds on it. *)

type t

(** [create ?domains ()] sizes the pool. Default: the [FTL_DOMAINS]
    environment variable when set to a positive integer, else
    [Domain.recommended_domain_count ()]. Raises [Invalid_argument] when
    [domains < 1]. *)
val create : ?domains:int -> unit -> t

val domains : t -> int

(** A worker exception, captured printably so outcomes can cross domain
    (and, marshalled, process) boundaries — exception values themselves
    may hold unmarshalable payloads. *)
type exn_info = {
  printed : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;  (** raw backtrace, rendered; may be empty *)
}

(** Per-job classification of a fault-isolated batch. *)
type 'a outcome =
  | Done of 'a
  | Failed of exn_info  (** the job raised; the batch kept going *)
  | Timed_out  (** a {!Lattice_spice.Cancel} deadline fired inside the job *)
  | Cancelled
      (** explicit cancellation, or the job never ran because the
          batch token fired first *)

(** [map_outcomes t ?cancel ~n f] runs [f] over [0 .. n-1] with
    {e crash isolation}: a job that raises is recorded as [Failed] (or
    [Timed_out]/[Cancelled] for {!Lattice_spice.Cancel.Cancelled}) and
    the batch continues — no exception escapes this call. When [cancel] fires,
    in-flight jobs stop at their next cancellation checkpoint and
    unclaimed jobs are left [Cancelled] without running. Outcomes are
    merged by index. Batches of zero or one job run on the calling
    domain at any pool width. *)
val map_outcomes :
  t -> ?cancel:Lattice_spice.Cancel.t -> n:int -> (int -> 'a) -> 'a outcome array
