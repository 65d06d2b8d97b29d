(** Bounded content-addressed result cache with hit/miss/eviction
    counters and an optional persistent second tier.

    Keys are content digests (see {!Key}); values are whatever the call
    site memoizes — DC operating points, sweep results. The cache is a
    bounded hash table with second-chance eviction ({!Second_chance}),
    protected by a mutex, so pool workers on different domains can share
    it. Lookups never block on a compute:
    two domains missing the same key concurrently both compute (a
    benign duplicate) and the first [add] wins, keeping cached values
    stable for the cache's lifetime.

    {2 Persistent tier}

    [create ?fallback ?spill] wires a second tier (in practice
    {!Store}): on a memory miss, [find] consults [fallback] {e outside}
    the lock and, on a hit, promotes the value into memory — without
    re-spilling, since it already lives in the second tier. [add]
    calls [spill] only for keys it actually inserted (first write
    wins), so concurrent duplicate computes spill once. Both hooks run
    unlocked and must be domain-safe themselves.

    Hits, misses and evictions count once, in the cache's
    {!Lattice_obs.Metrics.Scope} (registry prefix ["engine.cache"]),
    which {!stats} reads; a hit also counts as the calling request's
    [cache_hits]. Lookups feed the ["engine.cache.lookup.seconds"]
    histogram and each eviction emits a trace instant. *)

type 'a t

type stats = {
  hits : int;
      (** [find] calls served — from memory or promoted from [fallback] *)
  misses : int;  (** [find] calls that found nothing in either tier *)
  evictions : int;  (** entries dropped to respect [capacity] *)
  size : int;  (** current entry count *)
  capacity : int;
}

(** [create ?capacity ?fallback ?spill ()] — capacity defaults to 4096
    entries; eviction is second chance ({!Second_chance}) and evicted
    entries survive in the [fallback] tier if one is wired. Raises
    [Invalid_argument] when [capacity < 1]. *)
val create :
  ?capacity:int ->
  ?fallback:(string -> 'a option) ->
  ?spill:(string -> 'a -> unit) ->
  unit ->
  'a t

(** [find t ~key] looks in memory, then in the [fallback] tier; it
    counts one hit or one miss. A memory hit gives the entry its second
    chance. *)
val find : 'a t -> key:string -> 'a option

(** [find_resident t ~key] is the memory half of {!find}: on a hit it
    counts one hit and gives the entry its second chance, exactly as
    [find]; on a miss it counts nothing and never consults [fallback].
    For a caller that answers a hit itself and hands a miss on to a
    path that calls [find], so every request counts one lookup. *)
val find_resident : 'a t -> key:string -> 'a option

(** [add t ~key v] inserts unless the key is already present (first
    write wins), evicting one entry when full; freshly inserted entries
    are handed to [spill]. *)
val add : 'a t -> key:string -> 'a -> unit

val stats : 'a t -> stats

val counters : 'a t -> (string * int) list
(** The snapshot of the scope {!stats} reads. *)

(** Second-chance eviction (the clock algorithm), the rule of every
    bounded table in the repo: the cache above and the daemon's circuit
    memo. Entries queue in insertion order. When the table is full, the
    hand passes the oldest entry: an entry found since it was inserted,
    or since the hand last passed it, has that mark cleared and goes to
    the back of the queue; the first unmarked entry is evicted. Without
    any [find] this is FIFO. An entry found between two passes of the
    hand is never evicted, so a working set that keeps being found
    survives a stream of entries that are inserted once and never found
    again. Not synchronized: callers hold their own lock. *)
module Second_chance : sig
  type ('k, 'v) t

  val create : capacity:int -> ('k, 'v) t
  (** Raises [Invalid_argument] when [capacity < 1]. *)

  val length : ('k, 'v) t -> int
  val mem : ('k, 'v) t -> 'k -> bool

  val find : ('k, 'v) t -> 'k -> 'v option
  (** Marks the entry found. *)

  val add : ('k, 'v) t -> 'k -> 'v -> 'k option
  (** [add t k v] inserts [k], unmarked, evicting one entry first when
      [t] is full; returns the evicted key. Raises [Invalid_argument]
      when [k] is present. *)

  val keys : ('k, 'v) t -> 'k list
  (** The resident keys in the order the hand will pass them. *)
end
