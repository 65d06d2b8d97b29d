(** Crash-safe persistent content-addressed result store.

    The disk tier under {!Cache}: entries are spilled to
    [dir/<aa>/<digest>.entry] files (sharded by the first two hex
    characters of the entry's file digest) so a warm cache survives
    process exit — a fresh process re-running an identical campaign
    reads every result back instead of re-solving.

    {2 Durability contract}

    - {b Atomic writes}: every entry is written to a temp file in the
      same shard directory and [rename]d into place, so readers (in this
      process or another) only ever see absent or complete files —
      never a torn write, even across a crash mid-write.
    - {b Verified reads}: each entry carries a magic tag, its full key,
      the payload length and an MD5 checksum. A corrupt, truncated or
      alien file fails verification, is best-effort deleted, and
      treated as a miss — it never raises and never reaches [Marshal].
      It is counted once in [stats.corrupt], by the reader that moved
      it out of its slot, however many readers verified it at once.
    - {b No IO failure escapes}: unreadable directories, permission
      errors, full disks all degrade to misses/dropped writes counted
      in [stats.errors].

    Values are [Marshal]ed; a store must hold exactly one value type
    (the phantom ['a] tracks it within a process; on disk, key spaces
    of different value types must not collide — {!Key} digests already
    embed a job-kind tag). Concurrent writers (domains or processes)
    are safe: both write complete files and the last rename wins with
    identical content. *)

type 'a t

type stats = {
  hits : int;
  misses : int;  (** lookups that found no (valid) entry file *)
  writes : int;  (** entries durably renamed into place *)
  corrupt : int;  (** entry files that failed verification, each counted once *)
  errors : int;  (** IO errors on read or write, degraded to miss/drop *)
}

val open_ : dir:string -> 'a t
(** Open (creating directories as needed) a store rooted at [dir].
    Raises [Invalid_argument] on an empty [dir]; any later IO trouble
    is absorbed into [stats]. *)

val find : 'a t -> key:string -> 'a option
val add : 'a t -> key:string -> 'a -> unit

val entry_path : 'a t -> key:string -> string
(** Where [key]'s entry lives (whether or not it exists) — exposed for
    the fault-injection tests, which corrupt entries in place. *)

val stats : 'a t -> stats
(** Read from the store's {!Lattice_obs.Metrics.Scope} (registry prefix
    ["engine.store"]). *)

val counters : 'a t -> (string * int) list
(** The snapshot of the scope {!stats} reads. *)
