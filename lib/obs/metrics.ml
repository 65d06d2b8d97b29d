let enabled = Atomic.make false
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

module Counter = struct
  type t = int Atomic.t

  let incr t = if on () then Atomic.incr t
  let add t n = if on () then ignore (Atomic.fetch_and_add t n)
  let get t = Atomic.get t
  let make () = Atomic.make 0
  let reset t = Atomic.set t 0
end

module Gauge = struct
  type t = { lock : Mutex.t; mutable v : float }

  let make () = { lock = Mutex.create (); v = 0.0 }

  let set t v =
    if on () then begin
      Mutex.lock t.lock;
      t.v <- v;
      Mutex.unlock t.lock
    end

  let add t dv =
    if on () then begin
      Mutex.lock t.lock;
      t.v <- t.v +. dv;
      Mutex.unlock t.lock
    end

  let get t =
    Mutex.lock t.lock;
    let v = t.v in
    Mutex.unlock t.lock;
    v

  let reset t =
    Mutex.lock t.lock;
    t.v <- 0.0;
    Mutex.unlock t.lock
end

module Log_buckets = struct
  (* Power-of-two buckets: bucket [i] for 1 <= i <= 70 covers
     [2^(i-41), 2^(i-40)), i.e. ~1e-12 .. ~1e9; bucket 0 is underflow
     (v <= 0 included), bucket 71 overflow. *)
  let n = 72
  let bias = 40

  let index v =
    if not (v > 0.0) then 0
    else begin
      let _, e = Float.frexp v in
      let i = e + bias in
      if i < 1 then 0 else if i > n - 2 then n - 1 else i
    end

  let lower i = Float.ldexp 1.0 (i - bias - 1)
  let upper i = Float.ldexp 1.0 (i - bias)

  let percentile counts ~count ~min_v ~max_v p =
    if count = 0 then Float.nan
    else begin
      let rank =
        let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int count)) in
        Int.max 1 (Int.min count r)
      in
      (* the extreme ranks are known exactly — don't approximate them
         with a bucket midpoint *)
      if rank = 1 then min_v
      else if rank = count then max_v
      else begin
        let i = ref 0 and seen = ref 0 in
        while !seen < rank && !i < n do
          seen := !seen + counts.(!i);
          if !seen < rank then incr i
        done;
        let repr =
          if !i = 0 then min_v else if !i = n - 1 then max_v else sqrt (lower !i *. upper !i)
        in
        Float.min max_v (Float.max min_v repr)
      end
    end
end

module Histogram = struct
  type t = {
    lock : Mutex.t;
    counts : int array;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let make () =
    {
      lock = Mutex.create ();
      counts = Array.make Log_buckets.n 0;
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let observe t v =
    if on () then begin
      let i = Log_buckets.index v in
      Mutex.lock t.lock;
      t.counts.(i) <- t.counts.(i) + 1;
      t.count <- t.count + 1;
      t.sum <- t.sum +. v;
      if v < t.min_v then t.min_v <- v;
      if v > t.max_v then t.max_v <- v;
      Mutex.unlock t.lock
    end

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let count t = locked t (fun () -> t.count)
  let sum t = locked t (fun () -> t.sum)
  let min_value t = locked t (fun () -> if t.count = 0 then Float.nan else t.min_v)
  let max_value t = locked t (fun () -> if t.count = 0 then Float.nan else t.max_v)

  let percentile t p =
    locked t (fun () ->
        Log_buckets.percentile t.counts ~count:t.count ~min_v:t.min_v ~max_v:t.max_v p)

  let buckets t =
    locked t (fun () ->
        let out = ref [] in
        for i = Log_buckets.n - 1 downto 0 do
          if t.counts.(i) > 0 then
            out := (Log_buckets.lower i, Log_buckets.upper i, t.counts.(i)) :: !out
        done;
        !out)

  let reset t =
    locked t (fun () ->
        Array.fill t.counts 0 Log_buckets.n 0;
        t.count <- 0;
        t.sum <- 0.0;
        t.min_v <- infinity;
        t.max_v <- neg_infinity)
end

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of Histogram.t

type instrument = C of Counter.t | G of Gauge.t | H of Histogram.t

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let counter name =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some (G _ | H _) ->
        invalid_arg (Printf.sprintf "Metrics.counter: %S is registered as another kind" name)
      | None ->
        let c = Counter.make () in
        Hashtbl.replace registry name (C c);
        c)

let gauge name =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (G g) -> g
      | Some (C _ | H _) ->
        invalid_arg (Printf.sprintf "Metrics.gauge: %S is registered as another kind" name)
      | None ->
        let g = Gauge.make () in
        Hashtbl.replace registry name (G g);
        g)

let histogram name =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some (C _ | G _) ->
        invalid_arg (Printf.sprintf "Metrics.histogram: %S is registered as another kind" name)
      | None ->
        let h = Histogram.make () in
        Hashtbl.replace registry name (H h);
        h)

(* --- scopes and requests -------------------------------------------------- *)

type scope_counter = {
  name : string;
  cell : int Atomic.t;
  global : Counter.t option;  (* the registry counter it mirrors *)
  request : string option;  (* the request counter it also counts in *)
}

type scope = { registry : string option; mutable counters : scope_counter list }
type request = { tags : (string * string) list; counts : scope }

(* The request each thread serves, keyed by systhread id (unique across
   domains): serve workers are threads sharing domain 0, pool workers
   the first thread of a spawned domain. Looked up per attributed event
   and, while spans record, per span — never in solver inner loops.
   [serving] counts the entries, so a process serving no request (every
   CLI run, every batch) answers [current] without taking the lock: a
   thread's own entry is counted before it can look for it. *)
module By_thread = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t
end)

let requests : request By_thread.t = By_thread.create 16
let requests_lock = Mutex.create ()
let serving = Atomic.make 0
let thread_key () = Thread.id (Thread.self ())

module Request = struct
  type t = request

  let make ?(tags = []) counts = { tags; counts }
  let tags r = r.tags
  let counts r = r.counts

  let current () =
    if Atomic.get serving = 0 then None
    else begin
      Mutex.lock requests_lock;
      let r = By_thread.find_opt requests (thread_key ()) in
      Mutex.unlock requests_lock;
      r
    end

  let install key = function
    | None ->
      By_thread.remove requests key;
      Atomic.decr serving
    | Some r ->
      if not (By_thread.mem requests key) then Atomic.incr serving;
      By_thread.replace requests key r

  let with_ r f =
    let key = thread_key () in
    Mutex.lock requests_lock;
    let prev = By_thread.find_opt requests key in
    install key (Some r);
    Mutex.unlock requests_lock;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock requests_lock;
        install key prev;
        Mutex.unlock requests_lock)

  let with_opt r f = match r with None -> f () | Some r -> with_ r f
end

module Scope = struct
  type t = scope
  type counter = scope_counter

  let create ?registry () = { registry; counters = [] }
  let qualified t name = match t.registry with None -> name | Some p -> p ^ "." ^ name

  let counter ?request t name =
    let c =
      {
        name;
        cell = Atomic.make 0;
        global = Option.map (fun _ -> counter (qualified t name)) t.registry;
        request;
      }
    in
    t.counters <- c :: t.counters;
    c

  let rec add c n =
    ignore (Atomic.fetch_and_add c.cell n);
    (match c.global with Some g -> Counter.add g n | None -> ());
    match c.request with
    | None -> ()
    | Some name -> (
      match Request.current () with
      | None -> ()
      | Some r -> (
        match List.find_opt (fun (rc : counter) -> rc.name = name) r.counts.counters with
        | Some rc -> add rc n
        | None -> ()))

  let incr c = add c 1
  let get c = Atomic.get c.cell

  let snapshot t =
    List.map (fun c -> (qualified t c.name, get c)) t.counters
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

end

let snapshot () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [] in
  Mutex.unlock registry_lock;
  entries
  |> List.map (fun (name, i) ->
         ( name,
           match i with
           | C c -> Counter_value (Counter.get c)
           | G g -> Gauge_value (Gauge.get g)
           | H h -> Histogram_value h ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun _ i acc -> i :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter
    (function C c -> Counter.reset c | G g -> Gauge.reset g | H h -> Histogram.reset h)
    entries

let render () =
  let buf = Buffer.create 1024 in
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match v with
        | Counter_value n -> ((name, n) :: cs, gs, hs)
        | Gauge_value g -> (cs, (name, g) :: gs, hs)
        | Histogram_value h -> (cs, gs, (name, h) :: hs))
      ([], [], []) (List.rev (snapshot ()))
  in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" n v)) counters
  end;
  if gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %g\n" n v)) gauges
  end;
  List.iter
    (fun (name, h) ->
      let count = Histogram.count h in
      if count = 0 then Buffer.add_string buf (Printf.sprintf "histogram %s: empty\n" name)
      else begin
        let mean = Histogram.sum h /. float_of_int count in
        Buffer.add_string buf
          (Printf.sprintf
             "histogram %s: count %d  mean %.4g  p50 %.4g  p90 %.4g  p95 %.4g  p99 %.4g  max %.4g\n"
             name count mean (Histogram.percentile h 50.0) (Histogram.percentile h 90.0)
             (Histogram.percentile h 95.0) (Histogram.percentile h 99.0) (Histogram.max_value h));
        let bs = Histogram.buckets h in
        let biggest = List.fold_left (fun m (_, _, c) -> Int.max m c) 1 bs in
        List.iter
          (fun (lo, hi, c) ->
            let bar = String.make (Int.max 1 (c * 40 / biggest)) '#' in
            Buffer.add_string buf (Printf.sprintf "  [%9.3g, %9.3g) %8d %s\n" lo hi c bar))
          bs
      end)
    hists;
  Buffer.contents buf
