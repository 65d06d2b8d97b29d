type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

module Trace = Lattice_obs.Trace
module Metrics = Lattice_obs.Metrics

module Second_chance = struct
  type 'v entry = { value : 'v; mutable found : bool }

  type ('k, 'v) t = {
    capacity : int;
    table : ('k, 'v entry) Hashtbl.t;
    ring : 'k Queue.t;  (* the keys in hand order, front = next passed *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Cache.Second_chance.create: capacity must be >= 1";
    { capacity; table = Hashtbl.create (Int.min capacity 256); ring = Queue.create () }

  let length t = Hashtbl.length t.table
  let mem t k = Hashtbl.mem t.table k

  let find t k =
    match Hashtbl.find_opt t.table k with
    | Some e ->
      e.found <- true;
      Some e.value
    | None -> None

  (* the hand clears and requeues every found key it passes, so one
     pass over the ring always ends at a victim *)
  let rec evict t =
    let k = Queue.take t.ring in
    let e = Hashtbl.find t.table k in
    if e.found then begin
      e.found <- false;
      Queue.add k t.ring;
      evict t
    end
    else begin
      Hashtbl.remove t.table k;
      k
    end

  let add t k v =
    if mem t k then invalid_arg "Cache.Second_chance.add: key present";
    let evicted = if length t >= t.capacity then Some (evict t) else None in
    Hashtbl.replace t.table k { value = v; found = false };
    Queue.add k t.ring;
    evicted

  let keys t = List.of_seq (Queue.to_seq t.ring)
end

let lookup_probe =
  Lattice_obs.Probe.make ~cat:"engine" ~hist:"engine.cache.lookup.seconds" "cache.lookup"

type 'a t = {
  entries : (string, 'a) Second_chance.t;
  lock : Mutex.t;
  fallback : (string -> 'a option) option;
  spill : (string -> 'a -> unit) option;
  scope : Metrics.Scope.t;
  hits : Metrics.Scope.counter;
  misses : Metrics.Scope.counter;
  evictions : Metrics.Scope.counter;
}

let create ?(capacity = 4096) ?fallback ?spill () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let scope = Metrics.Scope.create ~registry:"engine.cache" () in
  let counter ?request = Metrics.Scope.counter ?request scope in
  {
    entries = Second_chance.create ~capacity;
    lock = Mutex.create ();
    fallback;
    spill;
    scope;
    hits = counter ~request:"cache_hits" "hits";
    misses = counter "misses";
    evictions = counter "evictions";
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* insert under the caller's lock; true iff the key was fresh *)
let insert_locked t ~key v =
  if Second_chance.mem t.entries key then false
  else begin
    (match Second_chance.add t.entries key v with
    | Some victim ->
      Metrics.Scope.incr t.evictions;
      if Trace.on () then Trace.instant ~cat:"engine" ~args:[ ("key", victim) ] "cache.evict"
    | None -> ());
    true
  end

let find t ~key =
  let t0 = Lattice_obs.Probe.enter lookup_probe in
  let in_memory = locked t (fun () -> Second_chance.find t.entries key) in
  let r =
    match in_memory with
    | Some _ -> in_memory
    | None -> (
      (* second tier, consulted outside the lock; a hit is promoted to
         memory but not re-spilled — it already lives on disk *)
      match t.fallback with
      | None -> None
      | Some fb -> (
        match fb key with
        | None -> None
        | Some v ->
          locked t (fun () -> ignore (insert_locked t ~key v));
          Some v))
  in
  Metrics.Scope.incr (if Option.is_some r then t.hits else t.misses);
  Lattice_obs.Probe.leave lookup_probe t0;
  r

let find_resident t ~key =
  let t0 = Lattice_obs.Probe.enter lookup_probe in
  let r = locked t (fun () -> Second_chance.find t.entries key) in
  if Option.is_some r then Metrics.Scope.incr t.hits;
  Lattice_obs.Probe.leave lookup_probe t0;
  r

let add t ~key v =
  let fresh = locked t (fun () -> insert_locked t ~key v) in
  if fresh then Option.iter (fun spill -> spill key v) t.spill

let counters t = Metrics.Scope.snapshot t.scope

let stats t =
  {
    hits = Metrics.Scope.get t.hits;
    misses = Metrics.Scope.get t.misses;
    evictions = Metrics.Scope.get t.evictions;
    size = locked t (fun () -> Second_chance.length t.entries);
    capacity = t.entries.Second_chance.capacity;
  }

