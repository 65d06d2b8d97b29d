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

  let clear t =
    Hashtbl.reset t.table;
    Queue.clear t.ring
end

(* process-wide registry counters, aggregated across every cache
   instance; per-instance counts stay in [stats] *)
let lookup_probe =
  Lattice_obs.Probe.make ~cat:"engine" ~hist:"engine.cache.lookup.seconds" "cache.lookup"

let hits_counter = Metrics.counter "engine.cache.hits"
let misses_counter = Metrics.counter "engine.cache.misses"
let evictions_counter = Metrics.counter "engine.cache.evictions"

type 'a t = {
  entries : (string, 'a) Second_chance.t;
  lock : Mutex.t;
  fallback : (string -> 'a option) option;
  spill : (string -> 'a -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 4096) ?fallback ?spill () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    entries = Second_chance.create ~capacity;
    lock = Mutex.create ();
    fallback;
    spill;
    hits = 0;
    misses = 0;
    evictions = 0;
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
      t.evictions <- t.evictions + 1;
      Metrics.Counter.incr evictions_counter;
      if Trace.on () then Trace.instant ~cat:"engine" ~args:[ ("key", victim) ] "cache.evict"
    | None -> ());
    true
  end

let count_hit_locked t =
  t.hits <- t.hits + 1;
  Metrics.Counter.incr hits_counter

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
  locked t (fun () ->
      match r with
      | Some _ -> count_hit_locked t
      | None ->
        t.misses <- t.misses + 1;
        Metrics.Counter.incr misses_counter);
  Lattice_obs.Probe.leave lookup_probe t0;
  r

let find_resident t ~key =
  let t0 = Lattice_obs.Probe.enter lookup_probe in
  let r =
    locked t (fun () ->
        let r = Second_chance.find t.entries key in
        if Option.is_some r then count_hit_locked t;
        r)
  in
  Lattice_obs.Probe.leave lookup_probe t0;
  r

let add t ~key v =
  let fresh = locked t (fun () -> insert_locked t ~key v) in
  if fresh then Option.iter (fun spill -> spill key v) t.spill

let find_or_compute t ~key f =
  match find t ~key with
  | Some v -> v
  | None ->
    let v = f () in
    add t ~key v;
    v

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Second_chance.length t.entries;
        capacity = t.entries.Second_chance.capacity;
      })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let clear t =
  locked t (fun () ->
      Second_chance.clear t.entries;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
