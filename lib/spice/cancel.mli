(** Cooperative cancellation tokens: a wall-clock deadline plus an
    atomic kill flag, checked from the solver inner loops.

    A token is created once per job (or per batch) and threaded down
    into {!Dcop} and {!Transient}, whose inner loops call {!check} at
    iteration/step boundaries. A job whose budget expires therefore
    stops at the next boundary with a {!Cancelled} exception instead of
    grinding through the rest of the fallback ladder — the batch engine
    catches that exception and turns it into a structured
    [Timed_out]/[Cancelled] outcome, never a hang.

    Tokens are cheap and Domain-safe: {!check} on {!none} is a physical
    -equality test, on a flag-only token one atomic load, and on a
    deadline token one monotonic clock read
    ({!Lattice_obs.Clock.now_ns}). Tokens may be linked to a parent
    (e.g. a per-job token under a per-batch token): a token fires when
    its own deadline or flag fires, or any ancestor's does. *)

(** Why a token fired: the wall-clock [Deadline] expired, or
    cancellation was explicitly [Requested] via {!cancel}. *)
type reason = Deadline | Requested

val reason_name : reason -> string

exception Cancelled of reason
(** Raised by {!check}; escapes the solver entry points
    ([Dcop.solve_diag], [Transient.run_diag]) — cancellation is not a
    convergence failure and is never converted into one. *)

type t

val none : t
(** The never-firing token — the default everywhere; costs one physical
    -equality test per check. *)

(** [create ?parent ()] — a token that fires once {!cancel} is called
    or once [parent] fires. *)
val create : ?parent:t -> unit -> t

(** [with_deadline ?parent ~seconds ()] — [create] plus a deadline
    [seconds] of wall-clock from now. [seconds <= 0] fires immediately. *)
val with_deadline : ?parent:t -> seconds:float -> unit -> t

val of_deadline_s : float option -> t
(** [of_deadline_s d] — the token a CLI [--deadline] argument means:
    [None] is {!none}, [Some s] a fresh token firing [s] seconds from
    now. *)

val cancel : t -> unit
(** Request cancellation: every subsequent {!check} of this token (and
    of tokens parented under it) raises. No-op on {!none}. *)

val state : t -> reason option
(** [None] while the token has not fired; the firing reason afterwards
    (explicit {!cancel} wins over a deadline that also passed). *)

val is_cancelled : t -> bool

val check : t -> unit
(** Raise {!Cancelled} if the token (or an ancestor) has fired, else
    return. Call sites are the solver inner loops: once per Newton
    iteration, once per transient step, once per ladder rung. *)

val deadline_ns : t -> int option
(** The token's own absolute deadline ({!Lattice_obs.Clock.now_ns}
    base), if any (ancestors not consulted). *)
