(* Rolling SLO metrics: a time-windowed histogram/counter set built
   from N fixed-width buckets addressed by wall-clock epoch. Bucket
   [e mod n] belongs to epoch [e = now / bucket_ns]; an observation
   landing in a bucket tagged with a stale epoch first clears it, so
   old data ages out lazily with zero background work. A snapshot
   merges every bucket whose epoch is still inside the window.

   Durations use {!Metrics.Log_buckets}, the bucketing of
   {!Metrics.Histogram} (exact min/max per time bucket, clamped
   geometric midpoint for interior ranks), so windowed percentiles
   carry the same <= sqrt(2) relative bucketing error.

   The clock is injected ([now_ns] arguments) rather than read
   internally, which keeps the window algebra deterministic under
   test. *)

type outcome = Ok | Error | Timeout

module Log_buckets = Metrics.Log_buckets

type bucket = {
  mutable epoch : int;  (* -1 = never used *)
  counts : int array;
  mutable n : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable sum_s : float;
  mutable min_s : float;
  mutable max_s : float;
}

type t = { lock : Mutex.t; buckets : bucket array }

let nbuckets = 6
let bucket_ns = 10_000_000_000

let create () =
  {
    lock = Mutex.create ();
    buckets =
      Array.init nbuckets (fun _ ->
          {
            epoch = -1;
            counts = Array.make Log_buckets.n 0;
            n = 0;
            errors = 0;
            timeouts = 0;
            sum_s = 0.0;
            min_s = infinity;
            max_s = neg_infinity;
          });
  }

let window_s = float_of_int (nbuckets * bucket_ns) /. 1e9

let clear_bucket b epoch =
  Array.fill b.counts 0 Log_buckets.n 0;
  b.n <- 0;
  b.errors <- 0;
  b.timeouts <- 0;
  b.sum_s <- 0.0;
  b.min_s <- infinity;
  b.max_s <- neg_infinity;
  b.epoch <- epoch

let observe t ~now_ns ~dur_s ~outcome =
  let epoch = now_ns / bucket_ns in
  Mutex.lock t.lock;
  let b = t.buckets.(epoch mod nbuckets) in
  if b.epoch <> epoch then clear_bucket b epoch;
  let i = Log_buckets.index dur_s in
  b.counts.(i) <- b.counts.(i) + 1;
  b.n <- b.n + 1;
  b.sum_s <- b.sum_s +. dur_s;
  if dur_s < b.min_s then b.min_s <- dur_s;
  if dur_s > b.max_s then b.max_s <- dur_s;
  (match outcome with
  | Ok -> ()
  | Error -> b.errors <- b.errors + 1
  | Timeout -> b.timeouts <- b.timeouts + 1);
  Mutex.unlock t.lock

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

let snapshot t ~now_ns =
  let current = now_ns / bucket_ns in
  let oldest = current - nbuckets + 1 in
  Mutex.lock t.lock;
  let counts = Array.make Log_buckets.n 0 in
  let n = ref 0 and errors = ref 0 and timeouts = ref 0 in
  let sum = ref 0.0 and min_s = ref infinity and max_s = ref neg_infinity in
  Array.iter
    (fun b ->
      if b.epoch >= oldest && b.epoch <= current then begin
        Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
        n := !n + b.n;
        errors := !errors + b.errors;
        timeouts := !timeouts + b.timeouts;
        sum := !sum +. b.sum_s;
        if b.min_s < !min_s then min_s := b.min_s;
        if b.max_s > !max_s then max_s := b.max_s
      end)
    t.buckets;
  Mutex.unlock t.lock;
  let count = !n in
  let percentile = Log_buckets.percentile counts ~count ~min_v:!min_s ~max_v:!max_s in
  {
    count;
    errors = !errors;
    timeouts = !timeouts;
    rate_per_s = float_of_int count /. window_s;
    mean_s = (if count = 0 then Float.nan else !sum /. float_of_int count);
    p50_s = percentile 50.0;
    p95_s = percentile 95.0;
    p99_s = percentile 99.0;
    max_s = (if count = 0 then Float.nan else !max_s);
  }
